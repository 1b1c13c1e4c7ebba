// Package usbmon stands in for the Linux udev subsystem: it watches a
// mount root for USB storage keys with the Homework filesystem layout and
// drives the control API when keys appear or disappear.
//
// A "key" is a directory under the mount root containing:
//
//	homework.key    — first line is the key id
//	policy.json     — optional: a policy to install on insertion
//
// On real hardware udev fires an event when the stick is inserted; here a
// poll of the directory plays that role (Scan is also callable directly,
// which is how the examples and benches simulate insertion).
//
// Concurrency: the monitor's state is mutex-guarded; Run polls on its
// caller's goroutine until Stop, Scan may also be called directly from
// any goroutine, and key events fire synchronously on whichever
// goroutine scanned.
package usbmon

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/policy"
)

// Actions is the control surface the monitor drives; implemented by the
// policy engine (and by the control API over HTTP in a split deployment).
type Actions interface {
	InsertKey(id string)
	RemoveKey(id string)
	Install(p *policy.Policy) error
}

// Monitor watches a mount root.
type Monitor struct {
	root    string
	actions Actions

	mu      sync.Mutex
	present map[string]string // directory -> key id
	stop    chan struct{}
	once    sync.Once
}

// New creates a monitor for root driving actions.
func New(root string, actions Actions) *Monitor {
	return &Monitor{
		root: root, actions: actions,
		present: make(map[string]string),
		stop:    make(chan struct{}),
	}
}

// Run polls every interval until Stop.
func (m *Monitor) Run(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			_ = m.Scan()
		}
	}
}

// Stop halts Run.
func (m *Monitor) Stop() { m.once.Do(func() { close(m.stop) }) }

// Scan examines the mount root once, emitting insert/remove actions for
// changes since the previous scan. It returns the first error encountered
// reading the root (missing root is not an error: no keys present).
func (m *Monitor) Scan() error {
	entries, err := os.ReadDir(m.root)
	if err != nil {
		if os.IsNotExist(err) {
			entries = nil
		} else {
			return err
		}
	}

	found := make(map[string]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.root, e.Name())
		id, ok := readKeyID(filepath.Join(dir, "homework.key"))
		if !ok {
			continue
		}
		found[dir] = id
	}

	m.mu.Lock()
	var inserted, removed []string
	var insertedDirs []string
	for dir, id := range found {
		if m.present[dir] != id {
			inserted = append(inserted, id)
			insertedDirs = append(insertedDirs, dir)
		}
	}
	for dir, id := range m.present {
		if found[dir] != id {
			removed = append(removed, id)
		}
	}
	m.present = found
	m.mu.Unlock()

	for i, id := range inserted {
		if p, ok := readPolicy(filepath.Join(insertedDirs[i], "policy.json")); ok {
			_ = m.actions.Install(p) // a refused policy still leaves the key inserted
		}
		m.actions.InsertKey(id)
	}
	for _, id := range removed {
		m.actions.RemoveKey(id)
	}
	return nil
}

func readKeyID(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return "", false
	}
	id := strings.TrimSpace(sc.Text())
	return id, id != ""
}

func readPolicy(path string) (*policy.Policy, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	p, err := policy.ParsePolicy(data)
	if err != nil {
		return nil, false
	}
	return p, true
}

// WriteKey lays out a key directory (used by the policy interface to
// prepare a stick, and by tests).
func WriteKey(dir, keyID string, pol *policy.Policy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "homework.key"), []byte(keyID+"\n"), 0o644); err != nil {
		return err
	}
	if pol != nil {
		data, err := json.MarshalIndent(pol, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "policy.json"), data, 0o644)
	}
	return nil
}

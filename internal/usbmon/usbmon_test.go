package usbmon

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/packet"
	"repro/internal/policy"
)

func testPolicy() *policy.Policy {
	return &policy.Policy{
		Name:         "kids-facebook",
		Devices:      []string{"02:aa:00:00:00:01"},
		AllowedSites: []string{"facebook.com"},
		RequireKey:   "parent-key",
	}
}

func TestWriteKeyLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "usb0")
	if err := WriteKey(dir, "parent-key", testPolicy()); err != nil {
		t.Fatal(err)
	}
	id, ok := readKeyID(filepath.Join(dir, "homework.key"))
	if !ok || id != "parent-key" {
		t.Errorf("key id = %q, %v", id, ok)
	}
	p, ok := readPolicy(filepath.Join(dir, "policy.json"))
	if !ok || p.Name != "kids-facebook" {
		t.Errorf("policy = %+v, %v", p, ok)
	}
}

// recorder is a policy engine that logs the actions a monitor drives, in
// the order it drives them, as "install <policy>", "insert <key>" or
// "remove <key>".
type recorder struct {
	*policy.Engine
	log []string
}

func newRecorder() *recorder { return &recorder{Engine: policy.NewEngine(clock.NewSimulated())} }

func (r *recorder) Install(p *policy.Policy) error {
	r.log = append(r.log, "install "+p.Name)
	return r.Engine.Install(p)
}

func (r *recorder) InsertKey(id string) {
	r.log = append(r.log, "insert "+id)
	r.Engine.InsertKey(id)
}

func (r *recorder) RemoveKey(id string) {
	r.log = append(r.log, "remove "+id)
	r.Engine.RemoveKey(id)
}

func TestScanInsertAndRemove(t *testing.T) {
	root := t.TempDir()
	eng := newRecorder()
	m := New(root, eng)
	kid := packet.MustMAC("02:aa:00:00:00:01")

	// Empty root: nothing happens.
	if err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	if len(eng.log) != 0 {
		t.Fatalf("actions on empty root: %q", eng.log)
	}

	// "Insert" the key: its policy is installed, and the key it requires
	// is present, so the device is let on the network.
	keyDir := filepath.Join(root, "sda1")
	if err := WriteKey(keyDir, "parent-key", testPolicy()); err != nil {
		t.Fatal(err)
	}
	if err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"install kids-facebook", "insert parent-key"}; !slices.Equal(eng.log, want) {
		t.Fatalf("actions = %q, want %q", eng.log, want)
	}
	if len(eng.Policies()) != 1 {
		t.Error("policy not installed")
	}
	if a := eng.AccessFor(kid); !a.NetworkAllowed {
		t.Errorf("with the key in, access %+v", a)
	}

	// Rescan: no duplicate actions.
	_ = m.Scan()
	if len(eng.log) != 2 {
		t.Errorf("duplicate actions: %q", eng.log)
	}

	// "Remove" the key.
	if err := os.RemoveAll(keyDir); err != nil {
		t.Fatal(err)
	}
	_ = m.Scan()
	if len(eng.log) != 3 || eng.log[2] != "remove parent-key" {
		t.Fatalf("actions = %q", eng.log)
	}
	if a := eng.AccessFor(kid); a.NetworkAllowed {
		t.Errorf("with the key out, access %+v", a)
	}
}

func TestScanIgnoresNonKeys(t *testing.T) {
	root := t.TempDir()
	eng := newRecorder()
	m := New(root, eng)
	// A directory without homework.key is not a key.
	if err := os.MkdirAll(filepath.Join(root, "random-stick"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stray file at the root is ignored.
	if err := os.WriteFile(filepath.Join(root, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_ = m.Scan()
	if len(eng.log) != 0 {
		t.Errorf("actions = %q", eng.log)
	}
}

func TestKeyWithoutPolicyStillInserts(t *testing.T) {
	root := t.TempDir()
	eng := newRecorder()
	m := New(root, eng)
	if err := WriteKey(filepath.Join(root, "sdb1"), "guest-key", nil); err != nil {
		t.Fatal(err)
	}
	_ = m.Scan()
	if !slices.Equal(eng.log, []string{"insert guest-key"}) {
		t.Errorf("bare key: actions %q", eng.log)
	}
	if len(eng.Policies()) != 0 {
		t.Error("phantom policy installed")
	}
}

func TestMissingRootIsNotError(t *testing.T) {
	eng := policy.NewEngine(clock.NewSimulated())
	m := New(filepath.Join(t.TempDir(), "nonexistent"), eng)
	if err := m.Scan(); err != nil {
		t.Errorf("missing root: %v", err)
	}
}

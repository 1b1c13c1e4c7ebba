package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/hwdb"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TableIncidents is the incident recorder's own audit table.
const TableIncidents = "Incidents"

// IncidentConfig parameterizes an incident recorder.
type IncidentConfig struct {
	// Clock timestamps incident rows and bundles (default wall clock;
	// pass the fleet's simulated clock for deterministic soaks).
	Clock clock.Clock
	// Recorder supplies the retained windows snapshotted into bundles.
	Recorder *Recorder
	// Trace, when set, snapshots pipeline stage statistics (wire it to
	// Coordinator.TraceStats).
	Trace func() []trace.StageStats
	// Placement, when set, slices the home's placement history (wire it
	// to Coordinator.PlacementFor).
	Placement func(home uint64, max int) []fleet.PlacementEvent
	// Dir, when non-empty, receives one JSON bundle file per incident:
	// incident-<seq>-home<id>-<kind>.json.
	Dir string
}

const (
	// incidentRing bounds the Incidents table ring.
	incidentRing = 4096
	// recentRows caps the recent-row sample per table in a bundle.
	recentRows = 8
	// placementMax caps the placement slice per bundle.
	placementMax = 16
)

// Bundle is one incident's postmortem artifact: everything the fleet knew
// about the home when the verdict or action was recorded.
type Bundle struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Home   uint64    `json:"home"`
	Kind   string    `json:"kind"` // "verdict" or "action"
	What   string    `json:"what"` // target state / action name
	Prev   string    `json:"prev,omitempty"`
	OK     bool      `json:"ok"`
	Reason string    `json:"reason,omitempty"`

	Spans     []trace.StageStats     `json:"spans,omitempty"`
	Tables    map[string]string      `json:"tables,omitempty"` // table -> tab-separated recent rows
	Placement []fleet.PlacementEvent `json:"placement,omitempty"`
	File      string                 `json:"file,omitempty"`
}

// Incidents turns health verdicts and remediation actions into bundles:
// one row in its own hwdb Incidents table, and (with Dir set) one JSON
// dump per incident. Wire OnVerdict/OnAction into health.Config.
type Incidents struct {
	cfg IncidentConfig
	db  *hwdb.DB

	mu  sync.Mutex
	seq uint64
}

// NewIncidents builds an incident recorder.
func NewIncidents(cfg IncidentConfig) (*Incidents, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	ic := &Incidents{cfg: cfg, db: hwdb.New(cfg.Clock)}
	_, err := ic.db.CreateTable(TableIncidents, hwdb.NewSchema(
		hwdb.Column{Name: "home", Type: hwdb.TInt},
		hwdb.Column{Name: "kind", Type: hwdb.TString},
		hwdb.Column{Name: "what", Type: hwdb.TString},
		hwdb.Column{Name: "prev", Type: hwdb.TString},
		hwdb.Column{Name: "ok", Type: hwdb.TBool},
		hwdb.Column{Name: "reason", Type: hwdb.TString},
		hwdb.Column{Name: "spans", Type: hwdb.TInt},
		hwdb.Column{Name: "tables", Type: hwdb.TInt},
		hwdb.Column{Name: "placement", Type: hwdb.TInt},
		hwdb.Column{Name: "file", Type: hwdb.TString},
	), incidentRing)
	if err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: incident dir: %w", err)
		}
	}
	return ic, nil
}

// DB returns the incident audit database (Incidents table).
func (ic *Incidents) DB() *hwdb.DB { return ic.db }

// Bundles returns how many incident bundles have been recorded.
func (ic *Incidents) Bundles() int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return int(ic.seq)
}

// OnVerdict is the health.Config.OnVerdict hook: Sick and Cordoned
// verdicts produce a bundle, recovery/retirement transitions do not.
func (ic *Incidents) OnVerdict(ev health.VerdictEvent) {
	if ev.To != health.Sick && ev.To != health.Cordoned {
		return
	}
	ic.record(Bundle{
		Home:   ev.Home,
		Kind:   "verdict",
		What:   ev.To.String(),
		Prev:   ev.From.String(),
		OK:     true,
		Reason: ev.Reason,
	})
}

// OnAction is the health.Config.OnAction hook: every remediation action
// (including failed ones) produces a bundle.
func (ic *Incidents) OnAction(ev health.ActionEvent) {
	ic.record(Bundle{
		Home:   ev.Home,
		Kind:   "action",
		What:   ev.Action,
		OK:     ev.OK,
		Reason: ev.Detail,
	})
}

// record fills in the snapshot layers, inserts the audit row and writes
// the JSON dump. It runs synchronously on the monitor's Tick goroutine,
// after the monitor released its mutex, so taking the recorder's lock
// here is safe.
func (ic *Incidents) record(b Bundle) {
	ic.mu.Lock()
	ic.seq++
	b.Seq = ic.seq
	ic.mu.Unlock()
	b.Time = ic.cfg.Clock.Now()

	if ic.cfg.Trace != nil {
		b.Spans = ic.cfg.Trace()
	}
	if ic.cfg.Placement != nil {
		b.Placement = ic.cfg.Placement(b.Home, placementMax)
	}
	if ic.cfg.Recorder != nil {
		b.Tables = ic.snapshotTables(b.Home)
	}
	if ic.cfg.Dir != "" {
		name := fmt.Sprintf("incident-%d-home%d-%s.json", b.Seq, b.Home, b.Kind)
		path := filepath.Join(ic.cfg.Dir, name)
		if data, err := json.MarshalIndent(&b, "", "  "); err == nil {
			if err := os.WriteFile(path, data, 0o644); err == nil {
				b.File = name
			}
		}
	}

	_ = ic.db.Insert(TableIncidents,
		hwdb.Int64(int64(b.Home)),
		hwdb.Str(b.Kind),
		hwdb.Str(b.What),
		hwdb.Str(b.Prev),
		hwdb.Bool(b.OK),
		hwdb.Str(b.Reason),
		hwdb.Int64(int64(len(b.Spans))),
		hwdb.Int64(int64(len(b.Tables))),
		hwdb.Int64(int64(len(b.Placement))),
		hwdb.Str(b.File),
	)
}

// snapshotTables renders the tail of every recorded stream for the home,
// plus the fleet view's rows for the home, as tab-separated text blocks.
func (ic *Incidents) snapshotTables(home uint64) map[string]string {
	rec := ic.cfg.Recorder
	out := make(map[string]string)
	for _, tbl := range ic.homeTables(home) {
		res, err := rec.Replay(home, tbl, time.Time{}, time.Time{})
		if err != nil || len(res.Rows) == 0 {
			continue
		}
		if len(res.Rows) > recentRows {
			res.Rows = res.Rows[len(res.Rows)-recentRows:]
		}
		out[tbl] = res.Text()
	}
	// The fleet view records all homes under ViewHome; keep only this
	// home's FleetStats rows (column 0 is the home ID).
	if res, err := rec.Replay(ViewHome, telemetry.ViewTable, time.Time{}, time.Time{}); err == nil {
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			if len(row) > 1 && row[1].Int == int64(home) {
				kept = append(kept, row)
			}
		}
		res.Rows = kept
		if len(res.Rows) > recentRows {
			res.Rows = res.Rows[len(res.Rows)-recentRows:]
		}
		if len(res.Rows) > 0 {
			out[telemetry.ViewTable] = res.Text()
		}
	}
	return out
}

// homeTables lists the table names recorded for one home, sorted.
func (ic *Incidents) homeTables(home uint64) []string {
	rec := ic.cfg.Recorder
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []string
	for id := range rec.streams {
		if id.Home == home {
			out = append(out, id.Table)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

package chaos

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hwdb"
	"repro/internal/netsim"
)

// stormRun joins six devices, four of them wireless, to one seeded home,
// replays their joins in a DHCP storm, steps the home and returns the
// Leases and Links rows it holds, in insertion order.
func stormRun(t *testing.T, seed int64) []string {
	t.Helper()
	fl, eng := newChaosFleet(t, 1, seed)
	h := fl.Homes()[0]
	for i := 0; i < 6; i++ {
		if _, err := h.Join("", i%3 != 0, netsim.Pos{X: float64(2 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.setSchedule([]Episode{{Kind: DHCPStorm, Home: h.ID, At: 0, For: time.Second}})
	for i, now := range []time.Duration{0, 250 * time.Millisecond} {
		eng.tick(now)
		if err := fl.Step(0.25); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	var rows []string
	for _, name := range []string{hwdb.TableLeases, hwdb.TableLinks} {
		tbl, _ := h.Router.DB.Table(name)
		for _, r := range tbl.Snapshot() {
			cells := make([]string, r.NumCols())
			for c := range cells {
				cells[c] = r.Value(c).String()
			}
			rows = append(rows, fmt.Sprintf("%s %d %s", name, r.Time().UnixNano(), strings.Join(cells, " ")))
		}
	}
	return rows
}

// TestDHCPStormIsAFunctionOfItsSeed: a storm re-joins a home's devices in
// port order, so which device's DISCOVER goes first — and with it each
// wireless station's draws from the seeded model and the order its lease
// is re-added — is the same on every run of one seed.
func TestDHCPStormIsAFunctionOfItsSeed(t *testing.T) {
	want := stormRun(t, 5)
	if !slices.ContainsFunc(want, func(r string) bool { return strings.HasPrefix(r, hwdb.TableLeases) }) {
		t.Fatal("the storm left no Leases rows")
	}
	for run := 1; run < 5; run++ {
		if got := stormRun(t, 5); !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("run %d differs from run 0 at row %d of %d:\n got %s\nwant %s", run, i, len(want), got[i], want[i])
				}
			}
			t.Fatalf("run %d holds %d rows, run 0 %d", run, len(got), len(want))
		}
	}
}

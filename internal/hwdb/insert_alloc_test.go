package hwdb_test

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// TestStandardInsertsAllocateNothing pins the measurement plane's three
// inserts at zero allocations on a home whose tables a telemetry hub is
// watching — the state every fleet home is in — across ring growth and
// wrap: the values go from the caller's stack into the slot.
func TestStandardInsertsAllocateNothing(t *testing.T) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	for _, name := range []string{hwdb.TableFlows, hwdb.TableLinks, hwdb.TableFlowPerf} {
		tbl, _ := db.Table(name)
		hub.Watch(telemetry.SourceID{Home: 1, Table: name}, tbl)
	}
	mac := packet.MAC{2, 0, 0, 0, 0, 1}
	ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, 10}, Dst: packet.IP4{93, 184, 216, 34}, Proto: packet.ProtoTCP, SrcPort: 40000, DstPort: 443}
	for name, insert := range map[string]func() error{
		"InsertFlow":     func() error { return db.InsertFlow(mac, ft, 10, 15000) },
		"InsertLink":     func() error { return db.InsertLink(mac, -52, 3, 54) },
		"InsertFlowPerf": func() error { return db.InsertFlowPerf(mac, ft, 10, 15000, 9, 13500, 1, 1.2e6, 180) },
	} {
		// 3 000 inserts into a 1 024-row ring: opens four pages, then wraps.
		// The pages (and the page list's growth) are the only allocations
		// and average out below one.
		if n := testing.AllocsPerRun(3000, func() {
			if err := insert(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.2f per op with a hub watching, want 0", name, n)
		}
	}
	hub.Flush()
	if st := hub.Stats(); st.Delivered == 0 {
		t.Errorf("hub delivered nothing: %+v", st)
	}
}

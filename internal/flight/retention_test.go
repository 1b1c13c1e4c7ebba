package flight_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flight"
	"repro/internal/hwdb"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first may only have queued what finalizers and pools let go of
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retentionRun feeds sixteen homes' Flows tables through one hub, with a
// recorder attached if rec is set: for 20 s every home inserts 8 rows a
// second, then 15 homes go idle and the 16th carries on for twice the
// recorder's 30 s retention. It returns the live heap at the end, with
// everything the run built still reachable, and the recorder's books.
func retentionRun(b *testing.B, rec bool) (heap uint64, st flight.RecorderStats) {
	const (
		homes     = 16
		perSecond = 8
		activeFor = 20
		busyFor   = 60
	)
	clk := clock.NewSimulated()
	hub := telemetry.NewHub(telemetry.HubConfig{})
	defer hub.Close()
	dbs := make([]*hwdb.DB, homes)
	for h := range dbs {
		dbs[h] = hwdb.NewHomework(clk, 256)
		flows, _ := dbs[h].Table(hwdb.TableFlows)
		hub.Watch(telemetry.SourceID{Home: uint64(h + 1), Table: hwdb.TableFlows}, flows)
	}
	var r *flight.Recorder
	if rec {
		r = flight.NewRecorder(flight.RecorderConfig{Window: time.Second, Retention: 30 * time.Second})
		r.Attach(hub)
	}
	for s := 0; s < activeFor+busyFor; s++ {
		for h, db := range dbs {
			if s >= activeFor && h != homes-1 {
				continue
			}
			for k := 0; k < perSecond; k++ {
				ft := packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(h)}, Dst: packet.IP4{203, 0, 113, 10},
					Proto: packet.ProtoTCP, SrcPort: uint16(40000 + k), DstPort: 443}
				if err := db.InsertFlow(packet.MAC{2, 0, 0, 0, 0, byte(h)}, ft, 10, 15000); err != nil {
					b.Fatal(err)
				}
			}
		}
		hub.Flush()
		clk.Advance(time.Second)
	}
	heap = liveHeap()
	if r != nil {
		st = r.Stats()
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(dbs)
	return heap, st
}

// BenchmarkRecorderRetention measures what a recorder's retained rows
// cost in heap against what its books say it stores. An idle stream never
// compacts (retention runs from a stream's own newest row), so the 15 idle
// homes' rows stay stored while the busy home's early windows are
// compacted, and a stored row's view keeps the whole drain pass it came
// from alive. The run is made twice, without and with the recorder; the
// custom metric heap/stored is the difference in live heap over Stored ×
// the 72 bytes of cells a Flows row holds: 1.0 would be a recorder that
// keeps exactly its books.
func BenchmarkRecorderRetention(b *testing.B) {
	var factor float64
	var st flight.RecorderStats
	for i := 0; i < b.N; i++ {
		without, _ := retentionRun(b, false)
		var with uint64
		with, st = retentionRun(b, true)
		if st.Delivered+st.ViewRows != st.Stored+st.Compacted || st.Compacted == 0 {
			b.Fatalf("books: %+v", st)
		}
		factor = float64(int64(with)-int64(without)) / float64(st.Stored*9*8)
	}
	b.ReportMetric(factor, "heap/stored")
	b.ReportMetric(float64(st.Stored), "stored_rows")
}

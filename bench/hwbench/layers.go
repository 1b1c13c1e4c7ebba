package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/datapath"
	"repro/internal/fleet"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/nox"
	"repro/internal/oftransport"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Layer micro-measurements: each a fixed-input loop over one exported
// function, so a change to a layer can be seen without the rest of the tick
// around it. The shapes of BenchmarkE1/E2/E4, FrameBuild and TableLookup in
// the root bench_test.go are copied here, not imported: the benchmark pins
// its own inputs.

const layerRepeats = 5

// layerResult is the median ns/op and allocs/op over layerRepeats repeats.
type layerResult struct{ ns, allocs float64 }

// loop times n calls of f.
func loop(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0)
}

// measure sizes n so one repeat of op takes about budget/layerRepeats, then
// runs layerRepeats repeats. op returns the time it wants counted for its n
// operations, so set-up inside an op stays out of the figure.
func measure(budget time.Duration, op func(n int) time.Duration) layerResult {
	slice := budget / layerRepeats
	n := 1
	for {
		d := op(n)
		if d >= slice/4 || n >= 1<<26 {
			if d > 0 {
				n = max(1, int(float64(n)*float64(slice)/float64(d)))
			}
			break
		}
		n *= 4
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < layerRepeats; i++ {
		runtime.ReadMemStats(&m0)
		d := op(n)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return layerResult{median(ns), median(allocs)}
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// fillFlows rings up history the way the measurement plane does: 6 devices
// x 5 flows every 600 ms of simulated time, until the Flows ring is full.
func fillFlows(ring int) *hwdb.DB {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, ring)
	for rows := 0; rows < ring; {
		for d := 0; d < 6; d++ {
			for f := 0; f < 5; f++ {
				_ = db.InsertFlow(packet.MAC{2, byte(d)},
					packet.FiveTuple{Src: packet.IP4{192, 168, 1, byte(10 + d)}, Dst: packet.IP4{93, 184, 216, 34},
						Proto: packet.ProtoTCP, SrcPort: uint16(40000 + f), DstPort: uint16(80 + f)}, 10, 15000)
				rows++
			}
		}
		clk.Advance(600 * time.Millisecond)
	}
	return db
}

// runLayers runs every micro-measurement for about budget each and returns
// the per-layer metrics they define.
func runLayers(budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	srcMAC, dstMAC := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}
	srcIP, dstIP := packet.IP4{192, 168, 1, 10}, packet.IP4{93, 184, 216, 34}
	payload := make([]byte, 1200)

	// packet: build and decode one 1200-byte TCP frame.
	var buf []byte
	out["packet.append_tcp_frame_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			buf = packet.AppendTCPFrame(buf[:0], srcMAC, dstMAC, srcIP, dstIP, 40000, 80, packet.TCPAck, 7, 0, payload)
		})
	}).ns
	var dec packet.Decoded
	var decErr error
	out["packet.decode_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() { decErr = dec.Decode(buf) })
	}).ns
	if decErr != nil {
		return nil, fmt.Errorf("layers: decode: %w", decErr)
	}

	// datapath: exact-match lookup in a 1k-entry table, and the batched
	// receive fast path (lookup + MAC rewrite + transmit) per frame.
	tbl := datapath.NewFlowTable()
	var probe packet.Decoded
	var probeLen int
	for i := 0; i < 1024; i++ {
		f := packet.NewTCPFrame(packet.MAC{2, 0, 0, byte(i >> 8), byte(i), 1}, packet.MAC{3},
			packet.IP4{10, 0, byte(i >> 8), byte(i)}, packet.IP4{10, 1, 0, 1},
			uint16(1024+i), 80, packet.TCPAck, 0, nil).Bytes()
		var d packet.Decoded
		if err := d.Decode(f); err != nil {
			return nil, fmt.Errorf("layers: table frame: %w", err)
		}
		_ = tbl.Add(&datapath.FlowEntry{Match: openflow.MatchFromFrame(&d, 1), Priority: 10}, false)
		probe, probeLen = d, len(f)
	}
	now := time.Now()
	missed := false
	out["datapath.table_lookup_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if tbl.Lookup(&probe, 1, probeLen, now) == nil {
				missed = true
			}
		})
	}).ns
	if missed {
		return nil, fmt.Errorf("layers: table lookup missed its own entry")
	}
	dp := datapath.New(datapath.Config{ID: 1})
	out2 := &datapath.Port{No: 2}
	var txFrames int
	out2.SetOut(func([]byte) { txFrames++ })
	_ = dp.AddPort(&datapath.Port{No: 1})
	_ = dp.AddPort(out2)
	_ = dp.Table().Add(&datapath.FlowEntry{
		Match: openflow.MatchFromFrame(&dec, 1), Priority: 10,
		Actions: []openflow.Action{
			&openflow.ActionSetDLSrc{Addr: dstMAC}, &openflow.ActionSetDLDst{Addr: packet.MAC{4}},
			&openflow.ActionOutput{Port: 2},
		},
	}, false)
	const batchFrames = 128
	fb := new(packet.FrameBatch)
	for i := 0; i < batchFrames; i++ {
		fb.Append(buf)
	}
	out["datapath.receive_batch_ns_per_frame"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() { dp.ReceiveBatch(1, fb) })
	}).ns / batchFrames
	dp.Stop()
	if txFrames == 0 {
		return nil, fmt.Errorf("layers: receive batch forwarded nothing")
	}

	// openflow: one flow-mod encoded and decoded again.
	fm := &openflow.FlowMod{
		Match: openflow.MatchFromFrame(&dec, 1), Command: openflow.FlowModAdd, IdleTimeout: 30, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionSetDLDst{Addr: dstMAC}, &openflow.ActionOutput{Port: 2}},
	}
	var rd bytes.Reader
	var ofErr error
	out["openflow.flowmod_roundtrip_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			rd.Reset(openflow.Encode(fm))
			sink, ofErr = openflow.ReadMessage(&rd)
		})
	}).ns
	if ofErr != nil {
		return nil, fmt.Errorf("layers: flow-mod round trip: %w", ofErr)
	}

	// oftransport: one message there and back over the in-process pair.
	a, b := oftransport.Pair(0)
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			m, err := b.Recv()
			if err != nil || b.Send(m) != nil {
				return
			}
		}
	}()
	var trErr error
	out["oftransport.inproc_rtt_us"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if err := a.Send(fm); err != nil {
				trErr = err
				return
			}
			_, trErr = a.Recv()
		})
	}).ns / 1e3
	_ = a.Close()
	_ = b.Close()
	<-echoDone
	if trErr != nil {
		return nil, fmt.Errorf("layers: in-process transport: %w", trErr)
	}

	// nox: a barrier round trip between a joined controller and datapath.
	ctl := nox.NewController()
	joined := make(chan *nox.Switch, 1)
	ctl.OnJoin(func(ev *nox.JoinEvent) { joined <- ev.Switch })
	ndp := datapath.New(datapath.Config{ID: 2})
	ctlEnd, dpEnd := oftransport.Pair(0)
	go func() { _ = ctl.ServeTransport(ctlEnd) }()
	go func() { _ = ndp.ConnectTransport(dpEnd) }()
	var sw *nox.Switch
	select {
	case sw = <-joined:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("layers: datapath did not join the controller")
	}
	var barErr error
	out["nox.barrier_rtt_us"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if err := sw.Barrier(); err != nil {
				barErr = err
			}
		})
	}).ns / 1e3
	ndp.Stop()
	_ = ctl.Close()
	if barErr != nil {
		return nil, fmt.Errorf("layers: barrier: %w", barErr)
	}

	// policy: the per-punt access question, four policies installed.
	pe := policy.NewEngine(clock.NewSimulated())
	for i := 0; i < 4; i++ {
		p := &policy.Policy{
			Name:         fmt.Sprintf("policy-%d", i),
			Devices:      []string{packet.MAC{2, 0, 0, 0, 0, byte(i)}.String(), srcMAC.String()},
			AllowedSites: []string{"example.org", "example.net"},
		}
		if err := pe.Install(p); err != nil {
			return nil, fmt.Errorf("layers: policy: %w", err)
		}
	}
	out["policy.access_for_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() { sink = pe.AccessFor(srcMAC) })
	}).ns

	// dhcp: one device through DISCOVER/OFFER/REQUEST/ACK on a fleet home.
	co := fleet.New(fleet.Config{Shards: 1, Workers: 1, Clock: clock.NewSimulated(), Seed: 1})
	home, err := co.AddHome()
	if err != nil {
		co.Stop()
		return nil, fmt.Errorf("layers: dhcp home: %w", err)
	}
	var joinErr error
	out["dhcp.join_ms"] = measure(budget, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n && joinErr == nil; i++ {
			t0 := time.Now()
			host, err := home.Join("", false, netsim.Pos{})
			d += time.Since(t0)
			if err == nil {
				err = home.Leave(host)
			}
			joinErr = err
		}
		return d
	}).ns / 1e6
	co.Stop()
	if joinErr != nil {
		return nil, fmt.Errorf("layers: dhcp join: %w", joinErr)
	}

	// hwdb: insert, parse, windowed select on a full default ring and on a
	// 1k ring, and the same select over the UDP RPC.
	idb := hwdb.NewHomework(clock.Real{}, hwdb.DefaultRingSize)
	ift := packet.FiveTuple{Proto: packet.ProtoTCP, DstPort: 443}
	var insErr error
	ins := measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if err := idb.InsertFlow(srcMAC, ift, 1, 1500); err != nil {
				insErr = err
			}
		})
	})
	if insErr != nil {
		return nil, fmt.Errorf("layers: hwdb insert: %w", insErr)
	}
	out["hwdb.insert_ns"], out["hwdb.insert_allocs"] = ins.ns, ins.allocs
	var parseErr error
	out["hwdb.parse_us"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() { sink, parseErr = hwdb.Parse(homeQuery) })
	}).ns / 1e3
	if parseErr != nil {
		return nil, fmt.Errorf("layers: hwdb parse: %w", parseErr)
	}
	parsed, err := hwdb.Parse(homeQuery)
	if err != nil {
		return nil, fmt.Errorf("layers: hwdb parse: %w", err)
	}
	stmt, ok := parsed.(*hwdb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("layers: hwdb parse: %T is not a select", parsed)
	}
	var selErr error
	selectOn := func(db *hwdb.DB) float64 {
		return measure(budget, func(n int) time.Duration {
			return loop(n, func() {
				res, err := db.Select(stmt)
				if err != nil || len(res.Rows) == 0 {
					selErr = fmt.Errorf("select: %d rows, err %v", len(res.Rows), err)
				}
			})
		}).ns / 1e3
	}
	out["hwdb.select_window_full_ring_us"] = selectOn(fillFlows(hwdb.DefaultRingSize))
	small := fillFlows(1024)
	out["hwdb.select_window_1k_ring_us"] = selectOn(small)
	if selErr != nil {
		return nil, fmt.Errorf("layers: hwdb %w", selErr)
	}
	hsrv := hwdb.NewServer(small)
	if err := hsrv.Serve("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("layers: hwdb server: %w", err)
	}
	hc, err := hwdb.Dial(hsrv.Addr())
	if err != nil {
		_ = hsrv.Close()
		return nil, fmt.Errorf("layers: hwdb dial: %w", err)
	}
	var rpcErr error
	out["hwdb.rpc_query_rtt_us"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if _, err := hc.Exec(homeQuery); err != nil {
				rpcErr = err
			}
		})
	}).ns / 1e3
	_ = hc.Close()
	_ = hsrv.Close()
	if rpcErr != nil {
		return nil, fmt.Errorf("layers: hwdb rpc: %w", rpcErr)
	}

	// telemetry: draining 1k fresh rows through hub and folder, and the
	// folder's O(1) totals read.
	tclk := clock.NewSimulated()
	hub := telemetry.NewHub(telemetry.HubConfig{Manual: true})
	folder := telemetry.NewFolder(hub, telemetry.FolderConfig{Clock: tclk})
	tdb := hwdb.NewHomework(tclk, hwdb.DefaultRingSize)
	flows, _ := tdb.Table(hwdb.TableFlows)
	folder.AddHome(1, nil)
	hub.Watch(telemetry.SourceID{Home: 1, Table: hwdb.TableFlows}, flows)
	out["telemetry.flush_us_per_1k_rows"] = measure(budget, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			for j := 0; j < 1000; j++ {
				_ = tdb.InsertFlow(srcMAC, ift, 1, 1500)
			}
			t0 := time.Now()
			hub.Flush()
			d += time.Since(t0)
		}
		return d
	}).ns / 1e3
	if st := hub.Stats(); st.Delivered == 0 || st.Lost != 0 {
		return nil, fmt.Errorf("layers: hub books: %+v", st)
	}
	out["telemetry.folder_read_ns"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() { sink = folder.Totals() })
	}).ns
	hub.Close()

	// shardrpc: an empty engine's STEP over loopback TCP, and the delta
	// codec on a 1k-row batch.
	eng := engine.New(engine.Config{Clock: clock.NewSimulated()})
	ssrv := shardrpc.NewServer(shardrpc.Config{Backend: eng, Hub: eng.Hub()})
	if err := ssrv.Serve("127.0.0.1:0"); err != nil {
		eng.Close()
		return nil, fmt.Errorf("layers: shardrpc server: %w", err)
	}
	sc := shardrpc.Dial(shardrpc.ClientConfig{Addr: ssrv.Addr()})
	var stepErr error
	out["shardrpc.idle_step_rtt_us"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			if err := sc.Step(tickDT); err != nil {
				stepErr = err
			}
		})
	}).ns / 1e3
	sc.Close()
	ssrv.Close()
	eng.Close()
	if stepErr != nil {
		return nil, fmt.Errorf("layers: shardrpc step: %w", stepErr)
	}
	rows := flows.Snapshot()[:1000]
	resp := &shardrpc.Response{Seq: 1, Verb: shardrpc.VerbSync, Batch: &shardrpc.Batch{Seq: 1, SentRows: 1000}}
	for i := 0; i < 4; i++ {
		resp.Batch.Deltas = append(resp.Batch.Deltas, telemetry.Delta{
			Source: telemetry.SourceID{Home: uint64(i), Table: hwdb.TableFlows}, Rows: rows[i*250 : (i+1)*250],
		})
	}
	var codecErr error
	out["shardrpc.delta_codec_us_per_1k_rows"] = measure(budget, func(n int) time.Duration {
		return loop(n, func() {
			got, err := shardrpc.DecodeResponse(shardrpc.EncodeResponse(resp))
			if err != nil || got.Batch == nil || len(got.Batch.Deltas) != 4 {
				codecErr = fmt.Errorf("decoded %+v, err %v", got, err)
			}
		})
	}).ns / 1e3
	if codecErr != nil {
		return nil, fmt.Errorf("layers: shardrpc codec: %w", codecErr)
	}
	return out, nil
}

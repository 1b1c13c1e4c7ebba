package main

// The benchmark's contract with BENCHMARK.json: workload names, metric
// names, units, directions and regression bounds live here and nowhere
// else; hwbench_test.go asserts the JSON file says the same.

// refSeconds is the `--seconds` value the tick counts below are sized for
// (BENCHMARK.json run_seconds). A run is fixed work: `--seconds n` scales
// every tick count by n/refSeconds, so the driver's constant argument gives
// every commit the identical tick count. Wall time is never the stopping
// rule, because ring fill — and with it heap, GC and query cost — grows with
// the number of ticks.
const refSeconds = 20

// Run shape shared by all workloads (see README "Run shape").
const (
	repetitions = 5    // in-process repetitions; every metric is their median
	warmupTicks = 20   // ticks before the measured phase of a repetition
	tickDT      = 0.25 // simulated seconds per tick
	maxProcs    = 2
	gcPercent   = 100
)

type workloadDef struct {
	Name  string
	Why   string
	Homes int
	// Ticks is the measured phase of one repetition at refSeconds.
	Ticks int
}

var workloadDefs = []workloadDef{
	{"web_churn", "16 in-process homes under browsing-like flow churn: every home opens one new flow per tick, so the control path (settle, punt to flow-mod, stats poll) does most of the work", 16, 280},
	{"bulk_stream", "4 homes each streaming 2 MB/s on long-lived flows: per-frame work (netsim into the datapath fast path) is nearly all of the tick and the control path is idle; the mirror image of web_churn", 4, 100},
	{"remote_web_churn", "web_churn's homes and traffic behind one shardrpc worker over loopback TCP: the difference to web_churn is the HWSH/1 round trip, delta codec, relay and federated commit", 16, 260},
	{"home_ui", "one long-running home (hwdb rings full) with mixed apps, read the way the paper's displays read it: CQL selects and ui refreshes beside the inserts the other workloads only write", 1, 220},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// maxBound is the issue's rule: no gate wider than a tenth. A metric whose
// medians differ by more than half that between two sets of runs of one
// commit is reported per layer, without a bound, not given a wider one.
const maxBound = 0.10

// setupBound is the one exception. The benchmark contract requires setup_s
// among the end-to-end metrics, with the largest bound, whatever its noise;
// identical code differed by 24 % between two sets on this box (README
// "Noise"), so anything narrower would reject an unchanged commit.
const setupBound = 0.25

// The gated metrics are the ones that do not depend on how fast the box
// happens to be running: every wall- and CPU-time metric moved by 11–44 %
// between two sets of ten runs of one commit, so all of them are per-layer
// (fleet.tick_p50_ms and the rest of timingDefs). Allocation count, bytes
// allocated and live heap repeat to a part in a thousand.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", setupBound},
	{"allocs_per_home_step", "count", "lower", 0.01},
	{"alloc_bytes_per_home_step", "B", "lower", 0.01},
	{"heap_mb_per_home", "MB", "lower", 0.02},
}

// timingDefs are the medians of the timed run's wall- and CPU-time samples.
// The issue listed them as end-to-end metrics; none of them holds a 10 %
// bound on this box, so they are per-layer: printed by every timed run as
// the median over its repetitions, recorded, shown by -compare, never gated.
var timingDefs = []metricDef{
	{"fleet.home_steps_per_s", "1/s", "higher", 0},
	{"fleet.tick_p50_ms", "ms", "lower", 0},
	{"runtime.cpu_ms_per_home_step", "ms", "lower", 0},
	{"core.flow_setup_p50_us", "us", "lower", 0},
	{"hwdb.fleet_query_p50_us", "us", "lower", 0},
	{"hwdb.home_query_p50_us", "us", "lower", 0},
	{"ui.refresh_p50_ms", "ms", "lower", 0},
}

// Per-layer metrics, in the order the README's interaction table lists them.
var perLayerDefs = append(append([]metricDef(nil), timingDefs...), []metricDef{
	// -trace: spans recorded by the harness around the exported calls of each layer.
	{"netsim.step_us_per_home_step", "us", "lower", 0},
	{"core.settle_us_per_home_step", "us", "lower", 0},
	{"measure.poll_us_per_home_step", "us", "lower", 0},
	{"fleet.sync_us_per_tick", "us", "lower", 0},
	{"clock.advance_us_per_tick", "us", "lower", 0},
	{"fleet.tick_unattributed_pct", "%", "lower", 0},
	{"shardrpc.step_rtt_us", "us", "lower", 0},
	{"shardrpc.sync_rtt_us", "us", "lower", 0},
	{"shardrpc.backend_step_us", "us", "lower", 0},
	{"ui.bandwidth_rows_ms", "ms", "lower", 0},
	{"ui.artifact_step_ms", "ms", "lower", 0},
	{"hwdb.flows_select_us", "us", "lower", 0},
	// Counters the program keeps (README "What is and is not deterministic").
	{"datapath.punts_per_home_step", "count", "lower", 0},
	{"nox.dispatched_per_home_step", "count", "lower", 0},
	{"measure.polls_per_home_step", "count", "lower", 0},
	{"hwdb.rows_per_home_step", "count", "lower", 0},
	{"datapath.lookups_per_home_step", "count", "lower", 0},
	{"datapath.fastpath_hit_ratio", "ratio", "higher", 0},
	{"datapath.flow_table_len", "count", "lower", 0},
	{"hwdb.rows_dropped", "count", "lower", 0},
	{"telemetry.delivered_rows_per_tick", "count", "lower", 0},
	{"telemetry.lost_rows", "count", "lower", 0},
	// Go runtime underneath all layers.
	{"runtime.gc_cycles_per_ktick", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	{"runtime.rss_peak_mb", "MB", "lower", 0},
	// Tails of the timed samples: reported, never gated.
	{"fleet.tick_p90_ms", "ms", "lower", 0},
	{"fleet.tick_p99_ms", "ms", "lower", 0},
	{"core.flow_setup_p99_us", "us", "lower", 0},
	{"hwdb.home_query_p99_us", "us", "lower", 0},
	{"hwdb.fleet_query_p99_us", "us", "lower", 0},
	{"ui.refresh_p99_ms", "ms", "lower", 0},
	// The program's own stamps, as a cross-check of core.flow_setup_p50_us.
	{"measure.install_us_p50", "us", "lower", 0},
	{"trace.punt_barrier_mean_us", "us", "lower", 0},
	// -layers: fixed-input loops over one exported function each.
	{"packet.append_tcp_frame_ns", "ns", "lower", 0},
	{"packet.decode_ns", "ns", "lower", 0},
	{"datapath.table_lookup_ns", "ns", "lower", 0},
	{"datapath.receive_batch_ns_per_frame", "ns", "lower", 0},
	{"openflow.flowmod_roundtrip_ns", "ns", "lower", 0},
	{"oftransport.inproc_rtt_us", "us", "lower", 0},
	{"nox.barrier_rtt_us", "us", "lower", 0},
	{"policy.access_for_ns", "ns", "lower", 0},
	{"dhcp.join_ms", "ms", "lower", 0},
	{"hwdb.insert_ns", "ns", "lower", 0},
	{"hwdb.insert_allocs", "count", "lower", 0},
	{"hwdb.parse_us", "us", "lower", 0},
	{"hwdb.select_window_full_ring_us", "us", "lower", 0},
	{"hwdb.select_window_1k_ring_us", "us", "lower", 0},
	{"hwdb.rpc_query_rtt_us", "us", "lower", 0},
	{"telemetry.flush_us_per_1k_rows", "us", "lower", 0},
	{"telemetry.folder_read_ns", "ns", "lower", 0},
	{"shardrpc.idle_step_rtt_us", "us", "lower", 0},
	{"shardrpc.delta_codec_us_per_1k_rows", "us", "lower", 0},
}...)

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Command hwfleetd runs a fleet of Homework homes: N independent routers
// (each with its own datapath, controller modules, hwdb and simulated
// home network) placed across shard engines by the fleet coordinator,
// with every shard's telemetry hub federated into one fleet-wide
// FleetStats view.
//
//	hwfleetd [-homes 64] [-hosts 3] [-shards 8] [-duration 10] [-scenario fleet.json]
//	         [-stats 127.0.0.1:0] [-linger 30s] [-debug-addr 127.0.0.1:6060]
//
// Flags override the scenario (default or loaded from -scenario JSON).
// One runner (fleet.Runner) drives every scenario on a simulated clock:
// -duration is simulated seconds, run as fast as the homes step.
//
// The shard engines run in this process, or in worker processes. A
// worker serves one shard engine's ShardClient contract over TCP
// (internal/fleet/shardrpc), populating each home the coordinator
// assigns from the scenario; a coordinator given -workers drives those
// shards over the network instead of in-process engines, with each
// worker's telemetry fed back into a coordinator-side hub and folded
// into the federated view under the same delivered+lost == inserts
// accounting:
//
//	hwfleetd -worker -listen 127.0.0.1:7701 -shard-index 0
//	hwfleetd -worker -listen 127.0.0.1:7702 -shard-index 1
//	hwfleetd -workers 127.0.0.1:7701,127.0.0.1:7702 -homes 16 -duration 10
//
// Workers exit when the coordinator closes their shard (or on SIGINT).
// See docs/ARCHITECTURE.md "Fleet control plane" for the wire protocol
// and its reconnect/accounting semantics. A remote run churns no host
// (the coordinator holds no home handle); otherwise both modes step,
// report and reconcile alike.
//
// On completion it prints the run report — including the fleet-merged
// punt-lifecycle trace summary and FlowPerf loss totals — plus the
// busiest homes from the FleetStats view, and with -cql executes one
// more query against it. It exits 1 if the report disagrees with
// itself: the shard books must sum to the federation's (component by
// component in process, delivered+lost across the wire), the folder must
// have folded every delivered row, and the flight recorder's books must
// balance. A run that folded no flow also exits 1.
//
// With -stats, a streaming telemetry endpoint serves the live fleet view
// over UDP for the whole run (HWDB/1 framing: EXEC CQL, STATS, TRACE,
// and FLEET subscriptions pushing per-home deltas every so many simulated
// seconds); -linger keeps the process (and the endpoint) alive after the
// run so clients can keep querying. Simulated time stands still after the
// run, so subscriptions push nothing more while it lingers.
//
// With -debug-addr (off by default), an HTTP debug endpoint serves
// net/http/pprof profiles under /debug/pprof/ and expvar counters under
// /debug/vars in every mode, -worker and -workers processes included. A
// scenario run also publishes the live fleet trace summary as the
// "trace" expvar, the hub/federation loss books and folder totals as
// "telemetry", and the flight recorder's retention books as "flight".
//
// A flight recorder (internal/flight) rides along by default: it retains
// -retention worth of every home's telemetry in -flight-window buckets,
// serves AS OF / HISTORY time travel through the telemetry endpoint's
// EXEC verb and scrubbing through its REPLAY verb, and its books are
// reconciled in the final report (delivered + view rows == stored +
// compacted, and delivered == the federation's delivered). -retention 0
// disables it.
//
// With -chaos, the process instead runs the time-compressed chaos soak
// (internal/chaos): scheduled fault episodes over a simulated-clock
// fleet with the health/remediation loop live, exiting non-zero if any
// soak invariant is violated. -homes, -hosts, -shards and -seed carry
// over; -chaos-days sets the simulated fault window. With -incident-dir,
// every Sick/Cordoned verdict and remediation action dumps a JSON
// incident bundle there (trace spans, recent rows, placement history).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/fleet/engine"
	"repro/internal/fleet/shardrpc"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// runWorker serves one shard engine over TCP until the coordinator
// closes the shard (CLOSE verb) or the process is signalled. The clock
// is simulated and advanced only by the coordinator's SYNC timestamps,
// so a remote fleet steps in the same lockstep as an in-process one.
func runWorker(s fleet.Scenario, listen string, index int) {
	clk := clock.NewSimulated()
	eng := engine.New(engine.Config{
		Index:    index,
		Clock:    clk,
		Seed:     s.Seed,
		OnAssign: s.SetupHome,
	})
	srv := shardrpc.NewServer(shardrpc.Config{Backend: eng, Hub: eng.Hub(), Clock: clk})
	if err := srv.Serve(listen); err != nil {
		log.Fatal(err)
	}
	log.Printf("worker shard %d serving the fleet control plane on tcp://%s", index, srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-srv.Done():
		log.Printf("worker shard %d: coordinator closed the shard", index)
	case <-sig:
		log.Printf("worker shard %d: signalled", index)
		eng.Close()
	}
	srv.Close()
	st := eng.Stats()
	fmt.Printf("worker shard %d: %d steps, %d delivered + %d lost rows\n",
		index, st.Steps, st.Hub.Delivered, st.Hub.Lost)
}

// runChaosSoak drives the chaos soak gate and prints its report; any
// violated invariant exits non-zero with the reproducing seed.
func runChaosSoak(cfg chaos.SoakConfig, quiet bool) {
	if !quiet {
		cfg.Logf = log.Printf
	}
	res, err := chaos.Soak(cfg)
	if res != nil {
		fmt.Printf("chaos soak  seed %d\n", res.Seed)
		fmt.Printf("homes       %d\n", res.Homes)
		fmt.Printf("steps       %d scheduled + %d recovery (%s simulated in %v wall)\n",
			res.Steps, res.Extra, res.SimSpan, res.Wall.Round(time.Millisecond))
		fmt.Printf("episodes    %d scheduled: %d injected, %d skipped, %d unrecovered\n",
			res.Episodes, res.Injected, res.Skipped, res.Unrecovered)
		fmt.Printf("remediation %d verdicts: %d cordons, %d uncordons, %d restarts, %d replaces, %d failures\n",
			res.Counts.Verdicts, res.Counts.Cordons, res.Counts.Uncordons,
			res.Counts.Restarts, res.Counts.Replaces, res.Counts.Failures)
		fmt.Printf("telemetry   %d delivered + %d lost = %d inserts\n",
			res.HubDelivered, res.HubLost, res.Inserts)
		fmt.Printf("flight      %d streams in %d windows: %d stored + %d compacted; %d incident bundles\n",
			res.Recorder.Streams, res.Recorder.Windows, res.Recorder.Stored,
			res.Recorder.Compacted, res.Bundles)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	scenarioPath := flag.String("scenario", "", "scenario JSON file (defaults applied to absent fields)")
	homes := flag.Int("homes", 0, "override: number of homes")
	hosts := flag.Int("hosts", 0, "override: hosts per home")
	shards := flag.Int("shards", 0, "override: shard engines (0 = fleet default)")
	duration := flag.Float64("duration", 0, "override: simulated seconds to run")
	churn := flag.Float64("churn", -1, "override: churn events per home per simulated minute")
	seed := flag.Int64("seed", 0, "override: fleet seed")
	cql := flag.String("cql", "", "extra CQL query to run against the FleetStats view")
	stats := flag.String("stats", "", "serve the streaming telemetry endpoint on this UDP address")
	linger := flag.Duration("linger", 0, "keep serving telemetry this long after the run")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar debug HTTP on this address (off when empty)")
	quiet := flag.Bool("q", false, "suppress progress lines")
	chaosRun := flag.Bool("chaos", false, "run the time-compressed chaos soak instead of the scenario")
	chaosDays := flag.Float64("chaos-days", 0, "chaos: simulated days of scheduled faults (default 2)")
	retention := flag.Duration("retention", flight.DefaultRetention, "flight recorder retention (0 disables the recorder)")
	flightWindow := flag.Duration("flight-window", flight.DefaultWindow, "flight recorder time-bucket width")
	incidentDir := flag.String("incident-dir", "", "chaos: dump JSON incident bundles into this directory")
	worker := flag.Bool("worker", false, "serve one shard engine over TCP instead of running a scenario")
	listen := flag.String("listen", "127.0.0.1:0", "worker: TCP listen address for the shard control plane")
	shardIndex := flag.Int("shard-index", 0, "worker: this shard's index (labels stats; the engine is placement-blind)")
	workers := flag.String("workers", "", "coordinator: comma-separated worker addresses to drive instead of in-process shards")
	flag.Parse()

	// Every mode below serves the debug endpoint, worker and remote
	// coordinator processes included: pprof and the runtime's expvars need
	// no fleet. The scenario runner adds its fleet's expvars in OnFleet.
	if *debugAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof and expvar handlers.
			log.Printf("debug endpoint on http://%s/debug/pprof/ and /debug/vars", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, nil))
		}()
	}

	if *chaosRun {
		runChaosSoak(chaos.SoakConfig{
			Homes:        *homes,
			HostsPerHome: *hosts,
			Shards:       *shards,
			Seed:         *seed,
			SimDays:      *chaosDays,
			IncidentDir:  *incidentDir,
		}, *quiet)
		return
	}

	s := fleet.DefaultScenario()
	if *scenarioPath != "" {
		var err error
		if s, err = fleet.LoadScenario(*scenarioPath); err != nil {
			log.Fatal(err)
		}
	}
	if *homes > 0 {
		s.Homes = *homes
	}
	if *hosts > 0 {
		s.HostsPerHome = *hosts
	}
	if *shards > 0 {
		s.Shards = *shards
	}
	if *duration > 0 {
		s.DurationSec = *duration
	}
	if *churn >= 0 {
		s.ChurnPerMin = *churn
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}

	if *worker {
		runWorker(s, *listen, *shardIndex)
		return
	}
	var addrs []string
	if *workers != "" {
		addrs = strings.Split(*workers, ",")
	}

	runner, err := fleet.NewRunner(s, addrs)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		runner.Logf = log.Printf
	}
	var statsSrv *telemetry.Server
	var rec *flight.Recorder
	runner.OnFleet = func(f *fleet.Coordinator) {
		// OnFleet runs after the homes exist but before the first Sync,
		// so the recorder sees every delta from row zero and its books
		// reconcile exactly against the federation's delivered count.
		if *retention != 0 {
			rec = flight.NewRecorder(flight.RecorderConfig{
				Window:    *flightWindow,
				Retention: *retention,
			})
			rec.Attach(f.Hub())
			if err := rec.AttachView(f.DB(), telemetry.ViewTable); err != nil {
				log.Fatal(err)
			}
		}
		if *stats != "" {
			statsSrv = telemetry.NewServer(f.Telemetry())
			statsSrv.SetTraceSource(f.TraceStats)
			if rec != nil {
				statsSrv.SetReplaySource(rec.Replay)
			}
			if err := statsSrv.Serve(*stats); err != nil {
				log.Fatal(err)
			}
			log.Printf("telemetry endpoint on udp://%s (EXEC | STATS | TRACE | REPLAY | SUBSCRIBE FLEET EVERY ...)", statsSrv.Addr())
		}
		if *debugAddr != "" {
			expvar.Publish("trace", expvar.Func(func() any { return f.TraceStats() }))
			expvar.Publish("telemetry", expvar.Func(func() any {
				return map[string]any{
					"federation": f.Hub().Stats(),
					"totals":     f.Telemetry().Totals(),
					"shards":     f.ShardStats(),
				}
			}))
			if rec != nil {
				expvar.Publish("flight", expvar.Func(func() any { return rec.Stats() }))
			}
		}
	}

	rep, err := runner.Run()
	if err != nil {
		log.Fatal(err)
	}
	ok := report(rep, runner.Fleet(), rec, len(addrs) > 0, *cql)
	if statsSrv != nil {
		if ok {
			r := runner.Fleet().Telemetry().FleetRate()
			fmt.Printf("telemetry  %s  (fleet rate %.0f B/s, %.1f pkt/s at shutdown)\n",
				statsSrv.Addr(), r.BytesPerSec, r.PacketsPerSec)
			if *linger > 0 {
				log.Printf("lingering %v for telemetry clients...", *linger)
				time.Sleep(*linger)
			}
		}
		_ = statsSrv.Close()
	}
	// Close before exiting, so remote workers are told to stop too.
	runner.Close()
	if !ok {
		os.Exit(1)
	}
}

// report prints the run report and reconciles it: every home is hosted
// by exactly one shard, the shard hubs' books sum to the federation's,
// the global folder folded every delivered row, and the flight recorder
// stored or compacted every row it was handed. In process a shard hub is
// a federation member, so delivered and lost agree one by one; across the
// wire a row a worker counted delivered is accounted lost here if its
// connection died mid-batch, so only their sums must agree. A mismatch is
// a federation bug: report false rather than a report that disagrees with
// itself. No flow at all, or a failed -cql query, also reports false.
func report(rep *fleet.Report, fl *fleet.Coordinator, rec *flight.Recorder, remote bool, cql string) bool {
	fmt.Printf("scenario  %s\n", rep.Scenario)
	fmt.Printf("homes     %d (%d shards)\n", rep.Homes, rep.Shards)
	fmt.Printf("steps     %d (%.1fs simulated in %v wall)\n", rep.Steps, rep.SimSeconds, rep.Wall.Round(time.Millisecond))
	fmt.Printf("churn     %d host replacements\n", rep.Churned)
	fmt.Printf("hosts     %d across the fleet\n", rep.Totals.Hosts)
	fmt.Printf("flows     %d observations, %d packets, %d bytes\n",
		rep.Totals.Flows, rep.Totals.Packets, rep.Totals.Bytes)
	fmt.Printf("links     %d observations (%d rows lost to ring wrap)\n", rep.Totals.Links, rep.Totals.Lost)
	var sumHomes int
	var sumDelivered, sumLost uint64
	fmt.Println("shards (engine-local books):")
	for _, ss := range fl.ShardStats() {
		fmt.Printf("  shard %-3d %4d homes  %10d delivered + %6d lost\n",
			ss.Shard, ss.Homes, ss.Hub.Delivered, ss.Hub.Lost)
		sumHomes += ss.Homes
		sumDelivered += ss.Hub.Delivered
		sumLost += ss.Hub.Lost
	}
	fed := fl.Hub().Stats()
	fmt.Printf("federated %d delivered + %d lost\n", fed.Delivered, fed.Lost)
	books := sumDelivered == fed.Delivered && sumLost == fed.Lost
	if remote {
		books = sumDelivered+sumLost == fed.Delivered+fed.Lost
	}
	tot := fl.Telemetry().Totals()
	if sumHomes != fl.Size() || !books || tot.Rows != fed.Delivered {
		fmt.Fprintf(os.Stderr,
			"error: per-shard reports disagree with the global view: homes %d/%d, delivered %d/%d, lost %d/%d, folded rows %d/%d delivered\n",
			sumHomes, fl.Size(), sumDelivered, fed.Delivered,
			sumLost, fed.Lost, tot.Rows, fed.Delivered)
		return false
	}
	if rec != nil {
		fs := rec.Stats()
		fmt.Printf("flight    %d streams in %d windows: %d delivered + %d view rows = %d stored + %d compacted (%d lost)\n",
			fs.Streams, fs.Windows, fs.Delivered, fs.ViewRows, fs.Stored, fs.Compacted, fs.Lost)
		if fs.Delivered+fs.ViewRows != fs.Stored+fs.Compacted ||
			fs.Delivered != fed.Delivered || fs.Lost != fed.Lost {
			fmt.Fprintf(os.Stderr,
				"error: flight recorder books disagree with the federation: delivered %d/%d, lost %d/%d, stored+compacted %d/%d\n",
				fs.Delivered, fed.Delivered, fs.Lost, fed.Lost,
				fs.Stored+fs.Compacted, fs.Delivered+fs.ViewRows)
			return false
		}
	}
	if tot.PerfRows > 0 {
		lossPct := 100 * float64(tot.LostPkts) / float64(tot.TxPkts)
		fmt.Printf("flowperf  %d rows: %d tx pkts, %d lost (%.2f%%)",
			tot.PerfRows, tot.TxPkts, tot.LostPkts, lossPct)
		if tot.Installs > 0 {
			fmt.Printf(", mean rule install %dµs over %d flows",
				tot.InstallUSSum/tot.Installs, tot.Installs)
		}
		fmt.Println()
	}
	if stats := fl.TraceStats(); len(stats) > 0 && stats[0].Count > 0 {
		fmt.Println("trace (per-stage latency, fleet-merged):")
		for _, st := range stats {
			fmt.Printf("  %-17s %8d spans  p50 %7.1fµs  p99 %7.1fµs  max %7.1fµs\n",
				st.Stage, st.Count, st.P50NS/1e3, st.P99NS/1e3, float64(st.MaxNS)/1e3)
		}
	}
	if len(rep.TopHomes) > 0 {
		fmt.Println("top homes by folded bytes:")
		for _, h := range rep.TopHomes {
			fmt.Printf("  home-%-4d %10d bytes  %6d flow observations\n", h.Home, h.Bytes, h.Flows)
		}
	}
	if cql != "" {
		res, err := fl.DB().Query(cql)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Println(res.Text())
	}
	if rep.Totals.Flows == 0 {
		fmt.Fprintln(os.Stderr, "warning: no flows folded — scenario too short?")
		return false
	}
	return true
}

package chaos

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/fleet_digest.txt.gz from this run")

// The digest fleet: small enough that one run takes about a second, and
// busy enough that every table, fault kind, remediation step and placement
// operation shows in it.
const (
	digestSeed   = 1
	digestHomes  = 8
	digestHosts  = 3    // per home: wired, wireless, wired
	digestTicks  = 120  // scheduled ticks of stepSec; recovery runs after
	digestChurn  = 0.1  // per home and tick: one host leaves and a new one joins
	digestFlush  = 0.05 // per home and tick: a key event makes the forwarder flush its rules
	digestIdle   = 600  // flow idle timeout (s): a flow outlives the ticks between its frames
	digestShards = 2
	digestFile   = "testdata/fleet_digest.txt.gz"
)

// TestFleetDigest steps a seeded fleet of eight homes — churning hosts,
// wired and wireless, a short chaos schedule with the health ladder live,
// and one migration — and holds every row it produces to a committed
// digest: per tick, each watched table's rows per (home, table), the
// FleetStats view, the Health and Remedy audit rows and the placement log,
// each record with an FNV-64a hash of its rows. A change that claims the
// rows did not move must leave it unedited; a deliberate change rewrites
// it with -update and says why. install_us is a wall-clock reading, so a
// row records only whether it is > 0.
func TestFleetDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded fleet run in -short mode")
	}
	got := digestRun(t, digestSeed)
	if *update {
		writeDigest(t, got)
		t.Logf("rewrote %s: %d records", digestFile, len(got))
		return
	}
	want := readDigest(t)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w digestRecord
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g.head() == w.head() {
			continue
		}
		t.Fatalf("seed %d: record %d differs (first: %s)\n got:  %s\n%s\n want: %s\n%s",
			digestSeed, i, firstKey(g, w), g.head(), g.body(), w.head(), w.body())
	}
}

// digestRecord is one (tick, home, table)'s rows in a tick, oldest first.
// Home is 0 for the fleet-wide tables.
type digestRecord struct {
	tick  int
	home  uint64
	table string
	rows  []string
}

func (r digestRecord) hash() uint64 {
	h := fnv.New64a()
	for _, row := range r.rows {
		h.Write([]byte(row))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func (r digestRecord) head() string {
	if r.table == "" {
		return "(none)"
	}
	return fmt.Sprintf("tick %d home %d %s %d %016x", r.tick, r.home, r.table, len(r.rows), r.hash())
}

func (r digestRecord) body() string {
	var b strings.Builder
	for _, row := range r.rows {
		b.WriteString("   ")
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// firstKey names the (tick, home, table) of the first differing record.
func firstKey(g, w digestRecord) string {
	r := g
	if r.table == "" {
		r = w
	}
	return fmt.Sprintf("tick %d, home %d, table %s", r.tick, r.home, r.table)
}

// digestRun runs the digest fleet and returns its records in tick order;
// within a tick, the hub's deltas in (home, table) order, then the
// FleetStats view, the Health and Remedy rows and the placement events.
func digestRun(t *testing.T, seed int64) []digestRecord {
	t.Helper()
	sim := clock.NewSimulated()
	start := sim.Now()
	eng := newEngine()
	fl := fleet.New(fleet.Config{
		Clock:  sim,
		Seed:   seed,
		Shards: digestShards,
		HomeConfig: func(id uint64, c *core.Config) {
			c.WrapTransport = eng.faultsFor(id).wrap
			c.FlowIdleTimeout = digestIdle
		},
	})
	defer fl.Stop()
	eng.Bind(fl)

	var (
		recs []digestRecord
		tick int
	)
	installCol, _ := hwdb.HomeworkSchema(hwdb.TableFlowPerf).Index("install_us")
	fl.Hub().SubscribeFunc(func(d telemetry.Delta) {
		rec := digestRecord{tick: tick, home: d.Source.Home, table: d.Source.Table}
		for _, r := range d.Rows {
			skip := -1
			if d.Source.Table == hwdb.TableFlowPerf {
				skip = installCol
			}
			rec.rows = append(rec.rows, renderRow(r, skip, start))
		}
		if d.Lost > 0 {
			rec.rows = append(rec.rows, fmt.Sprintf("lost %d", d.Lost))
		}
		recs = append(recs, rec)
	})

	homes, err := fl.AddHomes(digestHomes)
	if err != nil {
		t.Fatalf("seed %d: bring-up: %v", seed, err)
	}
	mon := health.New(health.Config{
		Clock: sim,
		Hub:   fl.Hub(),
		Vitals: func(id uint64) (health.Vitals, bool) {
			h, ok := fl.Home(id)
			if !ok {
				return health.Vitals{}, false
			}
			return health.Vitals{PuntLag: h.PuntLag(), SettleErrs: h.SettleErrs()}, true
		},
		Actions: health.Actions{
			Cordon:   fl.Cordon,
			Uncordon: fl.Uncordon,
			Restart: func(id uint64) error {
				_, err := fl.RestartHome(id)
				if err == nil {
					eng.reapply(id)
				}
				return err
			},
			Replace: func(id uint64) (uint64, error) {
				h, err := fl.ReplaceHome(id)
				if err != nil {
					return 0, err
				}
				return h.ID, nil
			},
		},
	})
	ids := make([]uint64, 0, len(homes))
	for _, h := range homes {
		ids = append(ids, h.ID)
		mon.Track(h.ID)
	}
	populate := func() {
		for _, h := range fl.Homes() {
			if h.Cordoned() {
				continue
			}
			for h.Router.Net.HostCount() < digestHosts {
				if !joinDigestHost(h) {
					break
				}
			}
		}
	}
	churn := func() {
		for _, h := range fl.Homes() {
			if h.Cordoned() || h.Rand().Float64() >= digestChurn {
				continue
			}
			hosts := h.Router.Net.Hosts()
			if len(hosts) == 0 {
				continue
			}
			_ = h.Leave(hosts[h.Rand().Intn(len(hosts))]) // a wedged home keeps its host
		}
	}
	// A key going in or out is a policy change: the forwarder deletes every
	// forwarding and drop rule, and the flows punt afresh.
	keyed := map[uint64]bool{}
	flush := func() {
		for _, h := range fl.Homes() {
			if h.Rand().Float64() >= digestFlush {
				continue
			}
			if keyed[h.ID] {
				h.Router.Policy.RemoveKey("digest")
			} else {
				h.Router.Policy.InsertKey("digest")
			}
			keyed[h.ID] = !keyed[h.ID]
		}
	}
	populate()

	// Audit, view and placement readers: what each tick appended.
	var cursors [3]uint64
	tables := [3]*hwdb.Table{}
	tables[0], _ = fl.DB().Table(telemetry.ViewTable)
	tables[1], _ = mon.DB().Table(health.TableHealth)
	tables[2], _ = mon.DB().Table(health.TableRemedy)
	var lastEvent uint64
	appendTick := func() {
		for i, tb := range tables {
			rows, ins, lost := tb.Tail(cursors[i])
			cursors[i] = ins
			if len(rows) == 0 && lost == 0 {
				continue
			}
			rec := digestRecord{tick: tick, table: tb.Name()}
			for _, r := range rows {
				rec.rows = append(rec.rows, renderRow(r, -1, start))
			}
			if lost > 0 {
				rec.rows = append(rec.rows, fmt.Sprintf("lost %d", lost))
			}
			recs = append(recs, rec)
		}
		rec := digestRecord{tick: tick, table: "placement"}
		var maxID uint64
		for _, h := range fl.Homes() {
			maxID = max(maxID, h.ID)
		}
		var evs []fleet.PlacementEvent
		for id := uint64(0); id <= maxID; id++ {
			for _, ev := range fl.PlacementFor(id, 0) {
				if ev.Seq > lastEvent {
					evs = append(evs, ev)
				}
			}
		}
		if len(evs) == 0 {
			return
		}
		for len(evs) > 0 { // in Seq order
			lo := 0
			for i := range evs {
				if evs[i].Seq < evs[lo].Seq {
					lo = i
				}
			}
			ev := evs[lo]
			rec.rows = append(rec.rows, fmt.Sprintf("%d %d %s %d %d>%d", ev.Seq, ev.Step, ev.Op, ev.Home, ev.From, ev.To))
			lastEvent = max(lastEvent, ev.Seq)
			evs = append(evs[:lo], evs[lo+1:]...)
		}
		recs = append(recs, rec)
	}
	appendTick() // bring-up

	const stepDur = stepSec * time.Second
	eng.setSchedule(buildSchedule(seed, ids, digestTicks*stepDur))
	step := func() {
		tick++
		if err := fl.Step(stepSec); err != nil && !errors.Is(err, core.ErrWedged) {
			t.Fatalf("seed %d: tick %d: %v", seed, tick, err)
		}
		mon.Tick()
		eng.markRecovery(mon.State)
		churn()
		flush()
		populate()
		if tick == digestTicks/2 {
			// One migration, of the first home that is live and on its
			// modulo shard, to the other shard.
			for _, h := range fl.Homes() {
				if s := int(h.ID % digestShards); !h.Cordoned() {
					if _, err := fl.Migrate(h.ID, 1-s); err != nil {
						t.Fatalf("seed %d: migrate home %d: %v", seed, h.ID, err)
					}
					break
				}
			}
			populate()
		}
		fl.Sync()
		appendTick()
	}
	var simNow time.Duration
	for i := 0; i < digestTicks; i++ {
		eng.tick(simNow)
		step()
		simNow += stepDur
	}
	eng.finish()
	for extra := 0; extra < recoverySteps; extra++ {
		if _, _, unrec := eng.Counts(); unrec == 0 && mon.Converged() {
			break
		}
		step()
	}
	inj, skip, unrec := eng.Counts()
	counts := mon.Counts()
	if inj == 0 || counts.Actions() == 0 || unrec != 0 {
		t.Fatalf("seed %d: the digest fleet must inject and recover from faults: %d injected, %d skipped, %d unrecovered, %+v",
			seed, inj, skip, unrec, counts)
	}
	return recs
}

// joinDigestHost joins one host, wired or wireless by the home's host
// count, with steady telemetry traffic and, on a wireless host, web
// browsing, so flows come and go every tick.
func joinDigestHost(h *fleet.Home) bool {
	rng := h.Rand()
	wireless := h.Router.Net.HostCount()%2 == 1
	pos := netsim.Pos{X: 1 + rng.Float64()*3, Y: rng.Float64() * 2}
	host, err := h.Join("", wireless, pos)
	if err != nil {
		return false
	}
	host.AddApp(netsim.NewApp(netsim.AppIoT, soakTarget, 12))
	if wireless {
		host.AddApp(netsim.NewApp(netsim.AppWeb, soakTarget, 400))
	}
	return true
}

// renderRow writes a row's insert time, in seconds since the fleet's
// clock started, and its cells; the cell at skip (if any) is written as
// whether it is > 0.
func renderRow(r hwdb.Row, skip int, start time.Time) string {
	b := strconv.AppendFloat(nil, r.Time().Sub(start).Seconds(), 'f', -1, 64)
	for c := 0; c < r.NumCols(); c++ {
		b = append(b, ' ')
		if c == skip {
			b = strconv.AppendBool(b, r.Int(c) > 0)
			continue
		}
		b = append(b, r.Value(c).Text()...)
	}
	return string(b)
}

// writeDigest writes the records as gzipped text: a head line per record
// (tick, home, table, row count, hash) and its rows indented below it.
func writeDigest(t *testing.T, recs []digestRecord) {
	t.Helper()
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	for _, r := range recs {
		fmt.Fprintf(zw, "%s\n%s", r.head(), r.body())
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readDigest reads what writeDigest wrote.
func readDigest(t *testing.T) []digestRecord {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var recs []digestRecord
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if row, ok := strings.CutPrefix(line, "   "); ok && len(recs) > 0 {
			recs[len(recs)-1].rows = append(recs[len(recs)-1].rows, row)
			continue
		}
		var (
			r    digestRecord
			n    int
			hash string
		)
		if _, err := fmt.Sscanf(line, "tick %d home %d %s %d %s", &r.tick, &r.home, &r.table, &n, &hash); err != nil {
			t.Fatalf("%s: bad head %q: %v", digestFile, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

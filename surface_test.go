package homework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settableSurface is every exported field of every exported struct under
// internal/ whose name ends in Config, as package.Type.Field. A field a
// change adds or removes is a line it adds or removes here.
var settableSurface = []string{
	"chaos.SoakConfig.Homes",
	"chaos.SoakConfig.HostsPerHome",
	"chaos.SoakConfig.IncidentDir",
	"chaos.SoakConfig.Logf",
	"chaos.SoakConfig.Seed",
	"chaos.SoakConfig.Shards",
	"chaos.SoakConfig.SimDays",
	"core.Config.AutoPermit",
	"core.Config.Clock",
	"core.Config.DirectL2",
	"core.Config.DisableRPC",
	"core.Config.FlowIdleTimeout",
	"core.Config.HostRoutes",
	"core.Config.PoolEnd",
	"core.Config.PoolStart",
	"core.Config.RingSize",
	"core.Config.RouterIP",
	"core.Config.RouterMAC",
	"core.Config.Seed",
	"core.Config.Transport",
	"core.Config.WrapTransport",
	"datapath.Config.Clock",
	"datapath.Config.Description",
	"datapath.Config.ID",
	"datapath.Config.MissSendLen",
	"datapath.Config.NBuffers",
	"datapath.Config.Tracer",
	"dhcp.Config.AutoPermit",
	"dhcp.Config.Clock",
	"dhcp.Config.DB",
	"dhcp.Config.HostRoutes",
	"dhcp.Config.PoolEnd",
	"dhcp.Config.PoolStart",
	"dhcp.Config.ServerIP",
	"dhcp.Config.ServerMAC",
	"dnsproxy.Config.Clock",
	"dnsproxy.Config.Policy",
	"dnsproxy.Config.RouterIP",
	"dnsproxy.Config.RouterMAC",
	"dnsproxy.Config.UpstreamDNS",
	"dnsproxy.Config.UpstreamMAC",
	"dnsproxy.Config.UpstreamPort",
	"engine.Config.Clock",
	"engine.Config.HomeConfig",
	"engine.Config.Index",
	"engine.Config.OnAssign",
	"engine.Config.OnStep",
	"engine.Config.Seed",
	"fleet.Config.Clock",
	"fleet.Config.HomeConfig",
	"fleet.Config.Seed",
	"fleet.Config.Shards",
	"fleet.Config.StepTimeout",
	"fleet.Config.WorkerAddrs",
	"fleet.Config.Workers",
	"flight.IncidentConfig.Clock",
	"flight.IncidentConfig.Dir",
	"flight.IncidentConfig.Placement",
	"flight.IncidentConfig.Recorder",
	"flight.IncidentConfig.Trace",
	"flight.RecorderConfig.Retention",
	"flight.RecorderConfig.Schema",
	"flight.RecorderConfig.Window",
	"health.Config.Actions",
	"health.Config.Clock",
	"health.Config.Hub",
	"health.Config.OnAction",
	"health.Config.OnVerdict",
	"health.Config.Vitals",
	"measure.Config.Clock",
	"measure.Config.DB",
	"measure.Config.HomePrefix",
	"measure.Config.HomePrefixLen",
	"measure.Config.Links",
	"measure.Config.Resolver",
	"measure.Config.Stats",
	"openflow.SetConfig.Flags",
	"openflow.SetConfig.MissSendLen",
	"shardrpc.ClientConfig.Addr",
	"shardrpc.ClientConfig.Clock",
	"shardrpc.ClientConfig.Relay",
	"shardrpc.ClientConfig.StepTimeout",
	"shardrpc.Config.Backend",
	"shardrpc.Config.Clock",
	"shardrpc.Config.Hub",
	"telemetry.FolderConfig.Clock",
	"telemetry.HubConfig.Manual",
}

// configFields lists the exported fields of the exported *Config structs
// under internal/, sorted.
func configFields(t *testing.T) []string {
	t.Helper()
	var out []string
	for pkg, files := range internalPackages(t) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok || !spec.Name.IsExported() || !strings.HasSuffix(spec.Name.Name, "Config") {
					return true
				}
				for _, m := range members(spec.Type) {
					if ast.IsExported(m) {
						out = append(out, pkg+"."+spec.Name.Name+"."+m)
					}
				}
				return false
			})
		}
	}
	sort.Strings(out)
	return out
}

// TestSettableSurface fails when an exported field of a *Config struct
// under internal/ appears or disappears without settableSurface saying
// so: a new setting is a reviewed one-line diff, and so is a deleted one.
func TestSettableSurface(t *testing.T) {
	got := configFields(t)
	want := map[string]bool{}
	for _, n := range settableSurface {
		want[n] = true
	}
	have := map[string]bool{}
	for _, n := range got {
		have[n] = true
		if !want[n] {
			t.Errorf("+ %s: a new setting; add it to settableSurface", n)
		}
	}
	for _, n := range settableSurface {
		if !have[n] {
			t.Errorf("- %s: no longer declared; remove it from settableSurface", n)
		}
	}
	if len(got) != len(settableSurface) {
		t.Errorf("%d *Config fields, settableSurface lists %d", len(got), len(settableSurface))
	}
}

// contracts is every exported interface type under internal/, as
// package.Name followed by its method names, sorted. A contract a change
// adds, removes or reshapes is a line it changes here, so a second
// contract for one seam is a reviewed one-line diff.
var contracts = []string{
	"clock.Clock: After Now",
	"hwdb.Expr: Eval",
	"hwdb.HistorySource: HistoryRows",
	"hwdb.Stmt: stmt",
	"measure.DeviceResolver: MACForIP",
	"measure.LinkSource: AppendLinkSamples",
	"nox.Component: Configure Name",
	"oftransport.Transport: Close Recv Send",
	"openflow.Action: String actType",
	"openflow.Message: Hdr layout",
	"shardrpc.Backend: Assign Close Cordon Drain Stats Step Sync TraceSnapshot Uncordon",
	"telemetry.Source: SubscribeFunc",
	"usbmon.Actions: InsertKey Install RemoveKey",
}

// interfaceContracts lists the exported interface types under internal/
// in the form contracts uses, sorted.
func interfaceContracts(t *testing.T) []string {
	t.Helper()
	var out []string
	for pkg, files := range internalPackages(t) {
		for _, f := range files {
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gen.Specs {
					spec, ok := spec.(*ast.TypeSpec)
					if !ok || !spec.Name.IsExported() {
						continue
					}
					if _, ok := spec.Type.(*ast.InterfaceType); !ok {
						continue
					}
					methods := members(spec.Type)
					sort.Strings(methods)
					out = append(out, pkg+"."+spec.Name.Name+": "+strings.Join(methods, " "))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestContractSurface fails when an exported interface under internal/
// appears, disappears or changes its method set without contracts saying
// so.
func TestContractSurface(t *testing.T) {
	got := interfaceContracts(t)
	want := map[string]bool{}
	for _, c := range contracts {
		want[c] = true
	}
	have := map[string]bool{}
	for _, c := range got {
		have[c] = true
		if !want[c] {
			t.Errorf("+ %s: a new or changed contract; add it to contracts", c)
		}
	}
	for _, c := range contracts {
		if !have[c] {
			t.Errorf("- %s: no longer declared as listed; remove it from contracts", c)
		}
	}
	if len(got) != len(contracts) {
		t.Errorf("%d exported interfaces, contracts lists %d", len(got), len(contracts))
	}
}

// unreadExports is every exported name that nothing outside its own
// package reads, each with the reason it stays: a top-level function under
// internal/ as package.Name, a method of an exported type under internal/
// as package.Type.Method, and a name homework.go declares as homework.Name.
// The list may only shrink: a name only its own package reads is
// unexported, and one nothing reads is deleted.
var unreadExports = []string{
	// hwdb's cell, row and table constructors, beside Int64 and Str, and
	// its result-text parser: other packages' tests build and read rows
	// with them.
	"hwdb.IPVal",
	"hwdb.MACVal",
	"hwdb.NewRow",
	"hwdb.NewTable",
	"hwdb.ParseText",
	// A package for other packages' tests to script a datapath with: attach
	// a module, and hand it a frame as a packet-in (FuzzDHCPPacketIn,
	// FuzzDNSPacketIn).
	"noxtest.Attach",
	"noxtest.Datapath.PacketIn",

	// errors.Is and errors.As call it; no file of the tree names it.
	"datapath.ChannelError.Unwrap",
	// ROADMAP item 1(a)'s digest fleet drives one migration; until then
	// TestMigrateHomeAcrossShards and TestPlacementDeterminism do.
	"fleet.Coordinator.Migrate",
	// RestartHome and ReplaceHome tear down through it, and the churn tests
	// of chaos, flight and the fleet (TestChaosChurn32Homes,
	// TestChaosSoakRemote, TestRecorderChurnFleet32) remove homes with it.
	"fleet.Coordinator.RemoveHome",
	// The hwdb.Expr contract (TestContractSurface); exec calls it.
	"hwdb.AndExpr.Eval",
	"hwdb.CmpExpr.Eval",
	"hwdb.NotExpr.Eval",
	"hwdb.OrExpr.Eval",
	// TestHomeEndpointTranscript, TestFleetEndpointTranscript and
	// TestServerSubscribeDeltaPushes count the live subscriptions a script
	// leaves; a leak that pushes every 10 s shows on no datagram.
	"hwdb.Server.Subscriptions",
	// The simulated home's instruments, which the router's tests use to act
	// as a device and watch one: hand a host a frame
	// (TestDuplicateAckLeavesHostUsable, TestModuleFramesMatchModel), make
	// a host resolve a name (BenchmarkE6DNSProxy), and see what a host
	// receives (TestIntraHomeTrafficTraversesRouter, TestPingRouter).
	"netsim.Host.Deliver",
	"netsim.Host.Resolve",
	"netsim.Host.SetOnFrame",
	// bench/hwbench/hwbench_test.go reads where the rig placed each host,
	// and the harness is pinned.
	"netsim.Host.Pos",
	// The wire replies TestStatsViewMatchesWire holds the measurement
	// plane's in-place view to; no module asks the switch over the wire.
	"nox.Switch.FlowStats",
	"nox.Switch.PortStats",
	// The remote tests' worker kill and its proof of a real reconnect
	// (TestChaosSoakRemote, TestRemoteFleetConcurrency32Homes,
	// TestTelemetryRelayAcrossReconnect); no HWSH/2 verb severs or counts
	// connections.
	"shardrpc.Server.Accepted",
	"shardrpc.Server.DropConns",
}

// exportedUnread lists, sorted, the exported names that no non-test Go
// file outside their package reads, in the forms unreadExports uses.
//
// A top-level function under internal/ is read where another package
// selects it through its import. A method is read where another package
// selects its name on a value. A selection on an imported package's name,
// standard library included, is a qualified identifier and reads no
// method. The rule goes by name, so a shared name can hide an unread
// method but never flags a read one, and a method called through an
// interface reads as read. A facade name is read where another package
// selects it through an import of the root package, where README.md names
// it as homework.Name, or where the signature of a read facade function
// names it.
func exportedUnread(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	declared := map[string]string{}          // import path + "." + Name -> package.Name
	read := map[string]bool{}                // import path + "." + Name, named by another package
	methods := map[string][]string{}         // import path -> package.Type.Method
	selected := map[string]map[string]bool{} // selector name -> import paths that select it
	signatures := map[string]*ast.FuncType{} // facade function -> its signature
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := path.Join("repro", filepath.ToSlash(filepath.Dir(file)))
		if own == "repro" || strings.HasPrefix(own, "repro/internal/") {
			for _, name := range exportedDecls(f) {
				declared[own+"."+name] = f.Name.Name + "." + name
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				switch {
				case fn.Recv == nil:
					if own == "repro" {
						signatures[own+"."+fn.Name.Name] = fn.Type
					}
				case own != "repro" && ast.IsExported(recvName(fn)):
					methods[own] = append(methods[own], f.Name.Name+"."+recvName(fn)+"."+fn.Name.Name)
				}
			}
		}
		imports := map[string]string{} // local name -> import path, any package's
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				// A qualified identifier: it reads a package's name, not a method.
				if p := imports[id.Name]; p != own && (p == "repro" || strings.HasPrefix(p, "repro/internal/")) {
					read[p+"."+sel.Sel.Name] = true
				}
				return true
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][own] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range facadeName.FindAllSubmatch(readme, -1) {
		read["repro."+string(m[1])] = true
	}
	// The facade's types alias internal ones, so the names a read
	// function's signature reads read no further facade names.
	var named []string
	for key, sig := range signatures {
		if read[key] {
			ast.Inspect(sig, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named = append(named, "repro."+id.Name)
				}
				return true
			})
		}
	}
	for _, key := range named {
		read[key] = true
	}
	var out []string
	for key, name := range declared {
		if !read[key] {
			out = append(out, name)
		}
	}
	for own, names := range methods {
		for _, name := range names {
			method := name[strings.LastIndex(name, ".")+1:]
			readers := len(selected[method])
			if selected[method][own] {
				readers--
			}
			if readers == 0 {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// facadeName is a facade name as README.md writes it.
var facadeName = regexp.MustCompile(`\bhomework\.([A-Z]\w*)`)

// exportedDecls names a file's exported top-level functions and, in the
// root package, its exported types, constants and variables too.
func exportedDecls(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil && decl.Name.IsExported() {
				out = append(out, decl.Name.Name)
			}
		case *ast.GenDecl:
			if f.Name.Name != "homework" {
				continue
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						out = append(out, spec.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the name of a method's receiver type.
func recvName(fn *ast.FuncDecl) string {
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestUnreadExports fails when an exported function or method under
// internal/, or a name of the homework facade, that nothing outside its
// package reads appears, or when one listed in unreadExports is read or
// gone: a name exported for nobody is a reviewed one-line diff, and so is
// the end of one.
func TestUnreadExports(t *testing.T) {
	got := exportedUnread(t)
	want := map[string]bool{}
	for _, n := range unreadExports {
		want[n] = true
	}
	have := map[string]bool{}
	for _, n := range got {
		have[n] = true
		if !want[n] {
			t.Errorf("+ %s: exported, and nothing outside its package reads it; delete or unexport it", n)
		}
	}
	for _, n := range unreadExports {
		if !have[n] {
			t.Errorf("- %s: read outside its package now, or gone; remove it from unreadExports", n)
		}
	}
	if len(got) != len(unreadExports) {
		t.Errorf("%d unread exported names, unreadExports lists %d", len(got), len(unreadExports))
	}
}

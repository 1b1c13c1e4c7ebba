package homework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settableSurface is every exported field of every exported struct under
// internal/ whose name ends in Config, as package.Type.Field. A field a
// change adds or removes is a line it adds or removes here.
var settableSurface = []string{
	"chaos.ScheduleConfig.Gap",
	"chaos.ScheduleConfig.Homes",
	"chaos.ScheduleConfig.MaxFor",
	"chaos.ScheduleConfig.MinFor",
	"chaos.ScheduleConfig.Seed",
	"chaos.ScheduleConfig.Span",
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
	"health.Config.Policy",
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
	"openflow.Action: String actType decode encode",
	"openflow.Message: Hdr decodeBody encodeBody",
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

// unreadExports is every exported top-level function under internal/ that
// no non-test Go file outside its own package names, as package.Name. Files
// in cmd/, examples/, bench/ and the root package count as readers. The
// list may only shrink: a function only its own package calls is
// unexported, and one nothing calls is deleted.
var unreadExports = []string{
	// hwdb's cell, row and table constructors, beside Int64 and Str, and
	// its result-text parser: other packages' tests build and read rows
	// with them.
	"hwdb.IPVal",
	"hwdb.MACVal",
	"hwdb.NewRow",
	"hwdb.NewTable",
	"hwdb.ParseText",
	// A package for other packages' tests to script a datapath with.
	"noxtest.Attach",
}

// exportedFuncsUnread lists the exported top-level functions under
// internal/ that no non-test file of another package names, sorted.
func exportedFuncsUnread(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	declared := map[string]string{} // import path + "." + Name -> package.Name
	read := map[string]bool{}       // import path + "." + Name, named by another package
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
		own := "repro/" + filepath.ToSlash(filepath.Dir(file))
		if strings.HasPrefix(own, "repro/internal/") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					declared[own+"."+fn.Name.Name] = f.Name.Name + "." + fn.Name.Name
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(p, "repro/internal/") || p == own {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
					read[imports[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for key, name := range declared {
		if !read[key] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// TestUnreadExports fails when an exported function under internal/ that
// no other package reads appears, or when one listed in unreadExports is
// read or gone: a function exported for nobody is a reviewed one-line
// diff, and so is the end of one.
func TestUnreadExports(t *testing.T) {
	got := exportedFuncsUnread(t)
	want := map[string]bool{}
	for _, n := range unreadExports {
		want[n] = true
	}
	have := map[string]bool{}
	for _, n := range got {
		have[n] = true
		if !want[n] {
			t.Errorf("+ %s: exported, and no other package reads it; unexport it", n)
		}
	}
	for _, n := range unreadExports {
		if !have[n] {
			t.Errorf("- %s: read by another package now, or gone; remove it from unreadExports", n)
		}
	}
	if len(got) != len(unreadExports) {
		t.Errorf("%d unread exported functions, unreadExports lists %d", len(got), len(unreadExports))
	}
}

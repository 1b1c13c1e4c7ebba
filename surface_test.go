package homework

import (
	"go/ast"
	"sort"
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

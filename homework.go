// Package homework is the public API of the Homework router platform: a
// reproduction of "Supporting Novel Home Network Management Interfaces
// with OpenFlow and NOX" (Mortier et al., SIGCOMM 2011).
//
// The platform is a home router built as an OpenFlow datapath under a
// NOX-style controller, whose modules — a DHCP server that hands out /32
// leases so every flow is visible at the router, a DNS proxy that ties
// flows to the names that produced them, and a RESTful control API —
// combine with the hwdb streaming measurement database to support novel
// management interfaces: per-device bandwidth visualization, a physical
// LED artifact, a drag-to-permit DHCP control display, and a USB-key-
// mediated visual policy language.
//
// Quickstart:
//
//	rt, err := homework.NewRouter(homework.DefaultConfig())
//	...
//	err = rt.Start()
//	h, _ := rt.AddHost("laptop", "02:aa:00:00:00:01", true, homework.Pos{X: 3})
//	_ = rt.JoinHost(h)
//	h.AddApp(homework.NewApp(homework.AppWeb, "example.com", 100_000))
//	rt.Net.Step(1.0)
//	view := homework.NewBandwidthView(rt.DB)
//	text, _ := view.Render()
package homework

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwdb"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/ui"
	"repro/internal/usbmon"
)

// Router is the assembled platform: datapath, controller with the DHCP,
// DNS-proxy, control-API and forwarding modules, hwdb, policy engine and
// the simulated home network.
type Router = core.Router

// Config parameterizes the platform.
type Config = core.Config

// DefaultConfig is a 192.168.1.0/24 home with the paper's /32 leases.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewRouter assembles a platform; call Start on the result.
func NewRouter(cfg Config) (*Router, error) { return core.New(cfg) }

// TransportKind selects the controller↔datapath control-plane channel
// (Config.Transport).
type TransportKind = core.TransportKind

// Control-plane transports: in-process channel passing (the default; no
// serialization on the hot path) or the classic loopback-TCP secure
// channel. See docs/ARCHITECTURE.md for the message flow under each.
const (
	TransportInProcess = core.TransportInProcess
	TransportTCP       = core.TransportTCP
)

// Host is a simulated home device.
type Host = netsim.Host

// Pos is a position in the home, metres from the router.
type Pos = netsim.Pos

// App generates application traffic from a host.
type App = netsim.App

// AppKind selects a traffic profile.
type AppKind = netsim.AppKind

// Traffic profiles for NewApp.
const (
	AppWeb   = netsim.AppWeb
	AppVideo = netsim.AppVideo
	AppVoIP  = netsim.AppVoIP
	AppP2P   = netsim.AppP2P
	AppIoT   = netsim.AppIoT
	AppDNS   = netsim.AppDNS
)

// NewApp builds a traffic application targeting a hostname or literal IP.
func NewApp(kind AppKind, target string, rateBps int) *App {
	return netsim.NewApp(kind, target, rateBps)
}

// DB is the Homework Database.
type DB = hwdb.DB

// DBClient is a UDP RPC client for a remote hwdb.
type DBClient = hwdb.Client

// DialDB connects to an hwdb server's UDP RPC address.
func DialDB(addr string) (*DBClient, error) { return hwdb.Dial(addr) }

// Policy is one cartoon policy.
type Policy = policy.Policy

// Schedule bounds when a policy grants access.
type Schedule = policy.Schedule

// MAC is an Ethernet address.
type MAC = packet.MAC

// IP4 is an IPv4 address.
type IP4 = packet.IP4

// ParseMAC parses a colon-separated Ethernet address.
func ParseMAC(s string) (MAC, error) { return packet.ParseMAC(s) }

// ParseIP4 parses a dotted-quad IPv4 address.
func ParseIP4(s string) (IP4, error) { return packet.ParseIP4(s) }

// BandwidthView is the Figure-1 per-device per-protocol display model.
type BandwidthView = ui.BandwidthView

// NewBandwidthView builds a bandwidth view over a database.
func NewBandwidthView(db *DB) *BandwidthView { return ui.NewBandwidthView(db) }

// Artifact is the Figure-2 physical LED artifact model.
type Artifact = ui.Artifact

// NewArtifact builds an artifact display for the device with the given MAC.
func NewArtifact(db *DB, mac MAC) *Artifact { return ui.NewArtifact(db, mac) }

// Artifact modes.
const (
	ModeSignal    = ui.ModeSignal
	ModeBandwidth = ui.ModeBandwidth
	ModeDHCP      = ui.ModeDHCP
)

// RenderFrame draws an artifact LED frame as text.
func RenderFrame(leds []ui.LED) string { return ui.RenderFrame(leds) }

// DHCPControl is the Figure-3 drag-to-permit display model.
type DHCPControl = ui.DHCPControl

// NewDHCPControl builds a control display over the control API at baseURL.
func NewDHCPControl(baseURL string) *DHCPControl { return ui.NewDHCPControl(baseURL) }

// PolicyCartoon is the Figure-4 visual policy builder.
type PolicyCartoon = ui.PolicyCartoon

// CartoonDevice is one figure in a cartoon's "who" panel.
type CartoonDevice = ui.CartoonDevice

// USBMonitor watches a mount root for policy keys (the udev stand-in).
type USBMonitor = usbmon.Monitor

// NewUSBMonitor builds a monitor that drives a router's policy engine.
func NewUSBMonitor(root string, rt *Router) *USBMonitor {
	return usbmon.New(root, rt.Policy)
}

// Fleet orchestrates many independent Homework homes in one process. It
// is the fleet's placement control plane — a coordinator that places
// homes across shard-local engines (FleetConfig.Shards), owns the
// spawn/drain/migrate/restart/replace lifecycle, and federates every
// shard's telemetry into one fleet-wide view. Declarative workload
// scenarios drive it end to end (see cmd/hwfleetd and
// docs/ARCHITECTURE.md "Fleet control plane").
type Fleet = fleet.Coordinator

// FleetConfig parameterizes a fleet.
type FleetConfig = fleet.Config

// FleetHome is one managed home within a fleet.
type FleetHome = fleet.Home

// FleetScenario declares a fleet workload (homes, hosts, app mix, churn).
type FleetScenario = fleet.Scenario

// FleetReport summarizes a scenario run.
type FleetReport = fleet.Report

// NewFleet creates an empty fleet; add homes with AddHome/AddHomes.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// DefaultFleetScenario is a small mixed-workload fleet scenario.
func DefaultFleetScenario() FleetScenario { return fleet.DefaultScenario() }

// RunFleetScenario executes a scenario end-to-end over in-process shards
// on a simulated clock and reports; logf (may be nil) receives progress
// lines.
func RunFleetScenario(s FleetScenario, logf func(string, ...any)) (*FleetReport, error) {
	r, err := fleet.NewRunner(s, nil)
	if err != nil {
		return nil, err
	}
	r.Logf = logf
	rep, err := r.Run()
	r.Close()
	return rep, err
}

// FleetTelemetry is the live fleet-wide telemetry folder: continuously
// maintained totals, windowed per-home and per-device rates, and the
// FleetStats view database, all readable without a fold pass. Reach it
// via Fleet.Telemetry(); it is the federated global folder, fed by every
// shard engine's hub, so it reads as one coherent fleet regardless of
// shard count.
type FleetTelemetry = telemetry.Folder

// FleetRate is a windowed byte/packet throughput estimate.
type FleetRate = telemetry.Rate

// FleetTelemetryServer streams fleet-wide aggregates over UDP: CQL EXEC
// against the FleetStats view, a STATS snapshot verb, and FLEET
// subscriptions that push per-home deltas only when counters move. It
// speaks the HWDB/1 framing, so DialDB clients drive it unchanged.
type FleetTelemetryServer = telemetry.Server

// ServeFleetTelemetry starts a streaming telemetry endpoint for a fleet
// on addr (e.g. "127.0.0.1:0"); close it with its Close method.
func ServeFleetTelemetry(f *Fleet, addr string) (*FleetTelemetryServer, error) {
	srv := telemetry.NewServer(f.Telemetry())
	if err := srv.Serve(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// Clock abstracts time; SimulatedClock is deterministic for tests.
type Clock = clock.Clock

// SimulatedClock is a manually advanced clock.
type SimulatedClock = clock.Simulated

// NewSimulatedClock returns a simulated clock at a fixed epoch.
func NewSimulatedClock() *SimulatedClock { return clock.NewSimulated() }

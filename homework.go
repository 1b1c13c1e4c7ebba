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

// IP4 is an IPv4 address.
type IP4 = packet.IP4

// BandwidthView is the Figure-1 per-device per-protocol display model.
type BandwidthView = ui.BandwidthView

// NewBandwidthView builds a bandwidth view over a database.
func NewBandwidthView(db *DB) *BandwidthView { return ui.NewBandwidthView(db) }

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

// NewFleet creates an empty fleet; add homes with AddHome/AddHomes.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

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

// SimulatedClock is a manually advanced clock, deterministic for tests.
type SimulatedClock = clock.Simulated

// NewSimulatedClock returns a simulated clock at a fixed epoch.
func NewSimulatedClock() *SimulatedClock { return clock.NewSimulated() }

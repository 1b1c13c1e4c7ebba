// Package controlapi implements the Homework router's control API NOX
// module: "a simple RESTful web interface to the router, invoked to
// exercise control over connected devices: by the Linux udev subsystem
// when a suitably formatted USB storage device is inserted; and directly
// by the various graphical control interfaces."
//
// Endpoints (JSON unless noted):
//
//	GET    /api/status                router identity and module health
//	GET    /api/devices               every device the DHCP server knows
//	POST   /api/devices/{mac}/permit  admit a device (Figure 3 drag)
//	POST   /api/devices/{mac}/deny    refuse a device and revoke its lease
//	POST   /api/devices/{mac}/annotate  attach user metadata (body: text)
//	GET    /api/policies              installed cartoon policies
//	POST   /api/policies              install a policy (body: policy JSON)
//	DELETE /api/policies/{name}       remove a policy
//	POST   /api/keys/{id}/insert      simulate/register USB key insertion
//	POST   /api/keys/{id}/remove      USB key removal
//	GET    /api/access/{mac}          effective restriction for a device
//	GET    /api/trace                 punt-lifecycle per-stage latency summary
//	GET    /api/replay/{table}        retained table history (text/plain;
//	                                  ?from=&to= unix nanoseconds)
//
// Concurrency: the API holds no mutable state of its own. Each request
// runs on its own HTTP-server goroutine and delegates to the DHCP server
// and policy engine, which synchronize internally, so requests may race
// each other and the controller's dispatch freely.
package controlapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/dhcp"
	"repro/internal/nox"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/trace"
)

// API is the control API module.
type API struct {
	DHCP     *dhcp.Server
	Policy   *policy.Engine
	RouterIP packet.IP4
	// OnChange, when set, runs after any control operation that changes
	// enforcement state (used to flush datapath flows).
	OnChange func()
	// Trace, when set, supplies the router's punt-lifecycle per-stage
	// latency summaries for GET /api/trace (the hwctl trace view). The
	// router wires it to its tracer; nil serves an empty list.
	Trace func() []trace.StageStats
	// Replay, when set, renders a table's retained history between two
	// instants (zero bounds open) as tabular text for GET /api/replay —
	// the hwctl replay view. The router wires it to its hwdb History;
	// nil answers 404.
	Replay func(table string, from, to time.Time) (string, error)

	mux *http.ServeMux // built by handler, on first use
	srv *http.Server
	ln  net.Listener
}

// New builds the API around the DHCP server and policy engine. Its routes
// are built when it first serves (ListenAndServe): a home whose API never
// serves pays for none of them.
func New(dhcpSrv *dhcp.Server, eng *policy.Engine, routerIP packet.IP4) *API {
	return &API{DHCP: dhcpSrv, Policy: eng, RouterIP: routerIP}
}

// handler returns the API's routes, building them on the first call. It is
// called before anything serves, so it needs no lock.
func (a *API) handler() http.Handler {
	if a.mux == nil {
		a.mux = http.NewServeMux()
		a.routes()
	}
	return a.mux
}

// Name implements nox.Component.
func (a *API) Name() string { return "control-api" }

// Configure implements nox.Component (the API needs no datapath events).
func (a *API) Configure(*nox.Controller) error { return nil }

// ListenAndServe starts the API on addr ("127.0.0.1:0" for an ephemeral
// port) and returns immediately.
func (a *API) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.ln = ln
	a.srv = &http.Server{Handler: a.handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = a.srv.Serve(ln) }()
	return nil
}

// Addr returns the bound address.
func (a *API) Addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Close shuts the server down.
func (a *API) Close() error {
	if a.srv == nil {
		return nil
	}
	return a.srv.Close()
}

func (a *API) changed() {
	if a.OnChange != nil {
		a.OnChange()
	}
}

// deviceJSON is the wire form of a device record.
type deviceJSON struct {
	MAC      string `json:"mac"`
	Hostname string `json:"hostname,omitempty"`
	Metadata string `json:"metadata,omitempty"`
	State    string `json:"state"`
	IP       string `json:"ip,omitempty"`
	LeasedAt string `json:"leased_at,omitempty"`
	Expiry   string `json:"expiry,omitempty"`
}

func toDeviceJSON(d dhcp.Device) deviceJSON {
	out := deviceJSON{
		MAC: d.MAC.String(), Hostname: d.Hostname, Metadata: d.Metadata,
		State: d.State.String(),
	}
	if !d.IP.IsZero() {
		out.IP = d.IP.String()
	}
	if !d.LeasedAt.IsZero() {
		out.LeasedAt = d.LeasedAt.UTC().Format(time.RFC3339)
	}
	if !d.Expiry.IsZero() {
		out.Expiry = d.Expiry.UTC().Format(time.RFC3339)
	}
	return out
}

func (a *API) routes() {
	a.mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"router":   a.RouterIP.String(),
			"devices":  len(a.DHCP.Devices()),
			"policies": len(a.Policy.Policies()),
		})
	})

	a.mux.HandleFunc("GET /api/trace", func(w http.ResponseWriter, r *http.Request) {
		stats := []trace.StageStats{}
		if a.Trace != nil {
			stats = a.Trace()
		}
		writeJSON(w, http.StatusOK, stats)
	})

	a.mux.HandleFunc("GET /api/replay/{table}", func(w http.ResponseWriter, r *http.Request) {
		if a.Replay == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("replay not available"))
			return
		}
		parseTS := func(key string) (time.Time, error) {
			v := r.URL.Query().Get(key)
			if v == "" {
				return time.Time{}, nil
			}
			n, err := strconv.ParseInt(strings.TrimPrefix(v, "@"), 10, 64)
			if err != nil {
				return time.Time{}, fmt.Errorf("bad %s timestamp %q", key, v)
			}
			return time.Unix(0, n), nil
		}
		from, err := parseTS("from")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		to, err := parseTS("to")
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		text, err := a.Replay(r.PathValue("table"), from, to)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, text)
	})

	a.mux.HandleFunc("GET /api/devices", func(w http.ResponseWriter, r *http.Request) {
		devices := a.DHCP.Devices()
		out := make([]deviceJSON, len(devices))
		for i, d := range devices {
			out[i] = toDeviceJSON(d)
		}
		writeJSON(w, http.StatusOK, out)
	})

	a.mux.HandleFunc("POST /api/devices/{mac}/permit", a.deviceAction(func(mac packet.MAC, _ string) error {
		a.DHCP.Permit(mac)
		return nil
	}))
	a.mux.HandleFunc("POST /api/devices/{mac}/deny", a.deviceAction(func(mac packet.MAC, _ string) error {
		a.DHCP.Deny(mac)
		return nil
	}))
	a.mux.HandleFunc("POST /api/devices/{mac}/annotate", a.deviceAction(func(mac packet.MAC, body string) error {
		a.DHCP.Annotate(mac, strings.TrimSpace(body))
		return nil
	}))

	a.mux.HandleFunc("GET /api/access/{mac}", func(w http.ResponseWriter, r *http.Request) {
		mac, err := packet.ParseMAC(r.PathValue("mac"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		acc := a.Policy.AccessFor(mac)
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"governed":        acc.Governed,
			"network_allowed": acc.NetworkAllowed,
			"allowed_sites":   acc.AllowedSites,
			"reason":          acc.Reason,
		})
	})

	a.mux.HandleFunc("GET /api/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.Policy.Policies())
	})

	a.mux.HandleFunc("POST /api/policies", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		p, err := policy.ParsePolicy(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := a.Policy.Install(p); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		a.changed()
		writeJSON(w, http.StatusCreated, p)
	})

	a.mux.HandleFunc("DELETE /api/policies/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !a.Policy.Remove(r.PathValue("name")) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no such policy"))
			return
		}
		a.changed()
		writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
	})

	a.mux.HandleFunc("POST /api/keys/{id}/insert", func(w http.ResponseWriter, r *http.Request) {
		a.Policy.InsertKey(r.PathValue("id"))
		a.changed()
		writeJSON(w, http.StatusOK, map[string]string{"status": "inserted"})
	})

	a.mux.HandleFunc("POST /api/keys/{id}/remove", func(w http.ResponseWriter, r *http.Request) {
		a.Policy.RemoveKey(r.PathValue("id"))
		a.changed()
		writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
	})
}

// deviceAction wraps a {mac}-keyed mutation endpoint.
func (a *API) deviceAction(fn func(mac packet.MAC, body string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mac, err := packet.ParseMAC(r.PathValue("mac"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		body, _ := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
		if err := fn(mac, string(body)); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		a.changed()
		dev, _ := a.DHCP.Lookup(mac)
		writeJSON(w, http.StatusOK, toDeviceJSON(dev))
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

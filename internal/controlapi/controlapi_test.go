package controlapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dhcp"
	"repro/internal/packet"
	"repro/internal/policy"
)

func testAPI(t *testing.T) (*API, *dhcp.Server, *policy.Engine, *httptest.Server) {
	t.Helper()
	clk := clock.NewSimulated()
	srv := dhcp.NewServer(dhcp.Config{
		ServerIP:  packet.MustIP4("192.168.1.1"),
		ServerMAC: packet.MustMAC("02:01:00:00:00:01"),
		PoolStart: packet.MustIP4("192.168.1.10"),
		PoolEnd:   packet.MustIP4("192.168.1.250"),
		Clock:     clk,
	})
	eng := policy.NewEngine(clk)
	api := New(srv, eng, packet.MustIP4("192.168.1.1"))
	ts := httptest.NewServer(api.handler())
	t.Cleanup(ts.Close)
	return api, srv, eng, ts
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postStatus(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestStatusEndpoint(t *testing.T) {
	_, _, _, ts := testAPI(t)
	var out map[string]interface{}
	if code := getJSON(t, ts.URL+"/api/status", &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out["router"] != "192.168.1.1" {
		t.Errorf("status = %v", out)
	}
}

func TestDeviceLifecycleOverHTTP(t *testing.T) {
	api, srv, _, ts := testAPI(t)
	changes := 0
	api.OnChange = func() { changes++ }

	mac := "02:aa:00:00:00:01"
	// The device appears (as if it had sent a DISCOVER).
	m, _ := packet.ParseMAC(mac)
	srv.Deny(m) // создать? no — Deny creates the record
	srv.Permit(m)

	var devices []map[string]interface{}
	getJSON(t, ts.URL+"/api/devices", &devices)
	if len(devices) != 1 || devices[0]["state"] != "permitted" {
		t.Fatalf("devices = %v", devices)
	}

	if code := postStatus(t, ts.URL+"/api/devices/"+mac+"/deny", ""); code != http.StatusOK {
		t.Fatalf("deny status = %d", code)
	}
	dev, _ := srv.Lookup(m)
	if dev.State != dhcp.Denied {
		t.Errorf("state = %v", dev.State)
	}
	if code := postStatus(t, ts.URL+"/api/devices/"+mac+"/permit", ""); code != http.StatusOK {
		t.Fatalf("permit status = %d", code)
	}
	if code := postStatus(t, ts.URL+"/api/devices/"+mac+"/annotate", "the kid's tablet"); code != http.StatusOK {
		t.Fatalf("annotate status = %d", code)
	}
	dev, _ = srv.Lookup(m)
	if dev.Metadata != "the kid's tablet" {
		t.Errorf("metadata = %q", dev.Metadata)
	}
	if changes < 3 {
		t.Errorf("OnChange fired %d times", changes)
	}
}

func TestDeviceBadMAC(t *testing.T) {
	_, _, _, ts := testAPI(t)
	if code := postStatus(t, ts.URL+"/api/devices/nonsense/permit", ""); code != http.StatusBadRequest {
		t.Errorf("status = %d", code)
	}
}

func TestPolicyCRUDOverHTTP(t *testing.T) {
	_, _, eng, ts := testAPI(t)
	body := `{"name":"kids-facebook","devices":["02:aa:00:00:00:01"],
	          "allowed_sites":["facebook.com"],"require_key":"parent-key"}`
	if code := postStatus(t, ts.URL+"/api/policies", body); code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	if len(eng.Policies()) != 1 {
		t.Fatal("policy not installed")
	}
	var pols []json.RawMessage
	getJSON(t, ts.URL+"/api/policies", &pols)
	if len(pols) != 1 {
		t.Fatalf("policies = %v", pols)
	}

	// Invalid policy rejected.
	if code := postStatus(t, ts.URL+"/api/policies", `{"name":""}`); code != http.StatusBadRequest {
		t.Errorf("bad policy status = %d", code)
	}

	// Access endpoint reflects the policy.
	var acc map[string]interface{}
	getJSON(t, ts.URL+"/api/access/02:aa:00:00:00:01", &acc)
	if acc["governed"] != true || acc["network_allowed"] != false {
		t.Errorf("access = %v", acc)
	}

	// Key insertion via the API lifts it.
	if code := postStatus(t, ts.URL+"/api/keys/parent-key/insert", ""); code != http.StatusOK {
		t.Fatalf("insert status = %d", code)
	}
	getJSON(t, ts.URL+"/api/access/02:aa:00:00:00:01", &acc)
	if acc["network_allowed"] != true {
		t.Errorf("access after key = %v", acc)
	}
	if code := postStatus(t, ts.URL+"/api/keys/parent-key/remove", ""); code != http.StatusOK {
		t.Fatalf("remove status = %d", code)
	}

	// Delete the policy.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/policies/kids-facebook", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(eng.Policies()) != 0 {
		t.Errorf("delete status = %d, policies = %d", resp.StatusCode, len(eng.Policies()))
	}
	// Double delete is 404.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete status = %d", resp.StatusCode)
	}
}

func TestListenAndServe(t *testing.T) {
	api, _, _, _ := testAPI(t)
	if err := api.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	if api.Addr() == "" {
		t.Fatal("no address")
	}
	resp, err := http.Get("http://" + api.Addr() + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestNameAndConfigure(t *testing.T) {
	api, _, _, _ := testAPI(t)
	if api.Name() != "control-api" {
		t.Errorf("name = %q", api.Name())
	}
	if err := api.Configure(nil); err != nil {
		t.Errorf("configure: %v", err)
	}
	if !strings.HasPrefix(api.RouterIP.String(), "192.168.1") {
		t.Errorf("router ip = %v", api.RouterIP)
	}
}

// TestReplayEndpoint: /api/replay/{table} forwards parsed bounds to the
// Replay hook, 404s without one, and 400s on bad timestamps.
func TestReplayEndpoint(t *testing.T) {
	api, _, _, ts := testAPI(t)

	resp, err := http.Get(ts.URL + "/api/replay/Flows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("hookless replay status = %d", resp.StatusCode)
	}

	var gotTable string
	var gotFrom, gotTo time.Time
	api.Replay = func(table string, from, to time.Time) (string, error) {
		gotTable, gotFrom, gotTo = table, from, to
		return "timestamp n\n", nil
	}
	resp, err = http.Get(ts.URL + "/api/replay/Flows?from=@100&to=200")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d body = %q", resp.StatusCode, body.String())
	}
	if gotTable != "Flows" || gotFrom.UnixNano() != 100 || gotTo.UnixNano() != 200 {
		t.Fatalf("hook called with table=%q from=%d to=%d", gotTable, gotFrom.UnixNano(), gotTo.UnixNano())
	}
	if !strings.HasPrefix(body.String(), "timestamp") {
		t.Fatalf("replay body = %q", body.String())
	}

	resp, err = http.Get(ts.URL + "/api/replay/Flows?from=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-from status = %d", resp.StatusCode)
	}
}

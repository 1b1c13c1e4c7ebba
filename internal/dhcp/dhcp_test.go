package dhcp

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hwdb"
	"repro/internal/packet"
)

func testServer(autoPermit bool) (*Server, *clock.Simulated, *hwdb.DB) {
	clk := clock.NewSimulated()
	db := hwdb.NewHomework(clk, 1024)
	s := NewServer(Config{
		ServerIP:   packet.MustIP4("192.168.1.1"),
		ServerMAC:  packet.MustMAC("02:01:00:00:00:01"),
		PoolStart:  packet.MustIP4("192.168.1.10"),
		PoolEnd:    packet.MustIP4("192.168.1.12"), // tiny pool for exhaustion tests
		HostRoutes: true, AutoPermit: autoPermit, Clock: clk, DB: db,
	})
	return s, clk, db
}

func TestAllocateStableAndExhaustion(t *testing.T) {
	s, _, _ := testServer(true)
	m1 := packet.MustMAC("02:aa:00:00:00:01")
	ip1, err := s.allocate(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same client gets the same address.
	ip1b, err := s.allocate(m1, nil)
	if err != nil || ip1b != ip1 {
		t.Errorf("allocation not stable: %v vs %v", ip1, ip1b)
	}
	// Distinct clients get distinct addresses; pool excludes the server.
	seen := map[packet.IP4]bool{ip1: true}
	for i := 2; i <= 3; i++ {
		ip, err := s.allocate(packet.MAC{2, 0xaa, 0, 0, 0, byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ip] {
			t.Errorf("duplicate allocation %v", ip)
		}
		seen[ip] = true
	}
	// Pool (3 addresses) exhausted.
	if _, err := s.allocate(packet.MAC{2, 0xaa, 0, 0, 0, 9}, nil); err == nil {
		t.Error("exhausted pool still allocating")
	}
}

func TestPermitDenyStates(t *testing.T) {
	s, _, _ := testServer(false)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	dev := s.device(mac, "phone")
	if dev.State != Pending {
		t.Errorf("initial state = %v", dev.State)
	}
	s.Permit(mac)
	if d, _ := s.Lookup(mac); d.State != Permitted {
		t.Errorf("state after permit = %v", d.State)
	}
	s.Deny(mac)
	if d, _ := s.Lookup(mac); d.State != Denied {
		t.Errorf("state after deny = %v", d.State)
	}
	s.Annotate(mac, "kid's phone")
	if d, _ := s.Lookup(mac); d.Metadata != "kid's phone" {
		t.Errorf("metadata = %q", d.Metadata)
	}
}

func TestDenyRevokesLease(t *testing.T) {
	s, _, db := testServer(true)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	s.device(mac, "phone")
	ip, err := s.allocate(mac, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the bound state the REQUEST handler would set.
	s.mu.Lock()
	s.devices[mac].IP = ip
	s.mu.Unlock()

	s.Deny(mac)
	if got, ok := s.MACForIP(ip); ok {
		t.Errorf("lease survives deny: %v", got)
	}
	res, err := db.Query("SELECT action FROM Leases [NOW]")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "del" {
		t.Errorf("hwdb lease row missing: %v %v", res, err)
	}
}

func TestMACForIPAndDeviceByIP(t *testing.T) {
	s, _, _ := testServer(true)
	mac := packet.MustMAC("02:aa:00:00:00:01")
	s.device(mac, "phone")
	ip, _ := s.allocate(mac, nil)
	got, ok := s.MACForIP(ip)
	if !ok || got != mac {
		t.Errorf("MACForIP = %v, %v", got, ok)
	}
	dev, ok := s.DeviceByIP(ip)
	if !ok || dev.MAC != mac {
		t.Errorf("DeviceByIP = %+v, %v", dev, ok)
	}
	if _, ok := s.MACForIP(packet.MustIP4("10.9.9.9")); ok {
		t.Error("unknown IP resolved")
	}
}

func TestDevicesSorted(t *testing.T) {
	s, _, _ := testServer(true)
	s.device(packet.MustMAC("02:aa:00:00:00:03"), "c")
	s.device(packet.MustMAC("02:aa:00:00:00:01"), "a")
	s.device(packet.MustMAC("02:aa:00:00:00:02"), "b")
	devs := s.Devices()
	if len(devs) != 3 || devs[0].Hostname != "a" || devs[2].Hostname != "c" {
		t.Errorf("devices = %+v", devs)
	}
}

func TestApprovalString(t *testing.T) {
	if Pending.String() != "pending" || Permitted.String() != "permitted" || Denied.String() != "denied" {
		t.Error("Approval strings wrong")
	}
}

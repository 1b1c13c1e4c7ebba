package netsim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datapath"
	"repro/internal/openflow"
	"repro/internal/packet"
)

// stockedHome is one network for the stock tests: a bound wired host
// streaming to the uplink, port 9, through one catch-all entry, and what
// the uplink carried of the host's frames and of anyone else's.
type stockedHome struct {
	net     *Network
	app     *App
	mac     packet.MAC
	payload uint64 // TCP payload bytes of the host's frames out of port 9
	foreign int    // frames out of port 9 the host did not send
}

func newStockedHome(t *testing.T, i int) *stockedHome {
	t.Helper()
	dp := datapath.New(datapath.Config{ID: uint64(i + 1)})
	s := &stockedHome{net: New(dp, DefaultWireless(1)), mac: packet.MAC{2, 0xaa, 0, 0, 0, byte(i + 1)}}
	h, err := s.net.AddHost("streamer", s.mac, false, Pos{})
	if err != nil {
		t.Fatal(err)
	}
	var d packet.Decoded
	if err := dp.AddPort(&datapath.Port{No: 9, Name: "uplink", Out: func(f []byte) {
		if d.Decode(f) != nil || !d.HasTCP || d.Eth.Src != s.mac {
			s.foreign++
			return
		}
		s.payload += uint64(len(d.TCP.Payload))
	}}); err != nil {
		t.Fatal(err)
	}
	if err := dp.Table().Add(&datapath.FlowEntry{Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 9}}}, false); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.state = dhcpBound
	h.ip = packet.IP4{192, 168, 1, byte(10 + i)}
	h.gw = packet.IP4{192, 168, 1, 1}
	h.mask = 32
	h.arp[h.gw] = packet.MustMAC("02:01:00:00:00:01")
	h.mu.Unlock()
	// Each home streams at its own rate, so the homes' ticks are batches
	// of different sizes.
	s.app = NewApp(AppVideo, fmt.Sprintf("10.0.0.%d", i+1), (i+1)*250_000)
	h.AddApp(s.app)
	return s
}

// check fails unless the uplink carried exactly the host's app payload and
// nothing of another home's.
func (s *stockedHome) check(t *testing.T, i int) {
	t.Helper()
	if sent := s.app.SentBytes(); s.payload != sent || s.foreign != 0 || sent == 0 {
		t.Errorf("home %d: uplink carried %d payload bytes and %d foreign frames; its app sent %d", i, s.payload, s.foreign, sent)
	}
}

// emptyStock forgets every batch the stock holds, so a test counts only
// the batches its own steps return.
func emptyStock() {
	batchStock.mu.Lock()
	clear(batchStock.free)
	batchStock.free = batchStock.free[:0]
	batchStock.mu.Unlock()
}

func stocked() int {
	batchStock.mu.Lock()
	defer batchStock.mu.Unlock()
	return len(batchStock.free)
}

// TestStepBorrowsOneTransmitBatch: networks stepped one after the other
// share one batch. A warm Step allocates nothing, the stock holds the one
// batch between steps, and each home's uplink carries exactly what its own
// host's app sent — no frame of one home's tick is left in, or leaks into,
// another's.
func TestStepBorrowsOneTransmitBatch(t *testing.T) {
	emptyStock()
	homes := make([]*stockedHome, 4)
	for i := range homes {
		homes[i] = newStockedHome(t, i)
	}
	stepAll := func() {
		for _, s := range homes {
			s.net.Step(0.1)
		}
	}
	for i := 0; i < 5; i++ { // resolve, SYN, then steady streaming
		stepAll()
	}
	if n := stocked(); n != 1 {
		t.Fatalf("stock holds %d batches after stepping four networks in turn, want 1", n)
	}
	if allocs := testing.AllocsPerRun(50, stepAll); allocs != 0 {
		t.Errorf("a warm step of four networks allocates %.1f times, want 0", allocs)
	}
	if n := stocked(); n != 1 {
		t.Errorf("stock holds %d batches, want 1", n)
	}
	for i, s := range homes {
		s.check(t, i)
	}
}

// TestConcurrentStepsBorrowTheirOwnBatch steps four networks on four
// goroutines at once: each step borrows a batch no other step holds (the
// race detector sees any batch two steps write), the stock keeps no more
// batches than steps ran at once, and each home's uplink carries exactly
// its own host's traffic.
func TestConcurrentStepsBorrowTheirOwnBatch(t *testing.T) {
	emptyStock()
	homes := make([]*stockedHome, 4)
	for i := range homes {
		homes[i] = newStockedHome(t, i)
	}
	var wg sync.WaitGroup
	for _, s := range homes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 0; step < 40; step++ {
				s.net.Step(0.05)
			}
		}()
	}
	wg.Wait()
	if n := stocked(); n < 1 || n > len(homes) {
		t.Errorf("stock holds %d batches after four concurrent steppers, want 1 to %d", n, len(homes))
	}
	for i, s := range homes {
		s.check(t, i)
	}
}

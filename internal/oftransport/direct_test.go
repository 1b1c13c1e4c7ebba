package oftransport

import (
	"errors"
	"testing"

	"repro/internal/openflow"
)

// What a direct end's Send carries has been delivered when Send returns, on
// the sending goroutine; closing either end tells both owners once, and a
// direct end refuses what it cannot deliver rather than queue it.
func TestDirectDeliversInsideSend(t *testing.T) {
	ctl, dp := Direct()
	if err := dp.Send(&openflow.Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to an end nobody bound = %v, want ErrClosed", err)
	}
	var toCtl, toDP []openflow.Message
	closes := map[string]int{}
	ctl.Bind(func(m openflow.Message) { toCtl = append(toCtl, m) }, func() { closes["ctl"]++ })
	dp.Bind(func(m openflow.Message) { toDP = append(toDP, m) }, func() { closes["dp"]++ })

	pi := &openflow.PacketIn{BufferID: 7}
	if err := dp.Send(pi); err != nil {
		t.Fatal(err)
	}
	if len(toCtl) != 1 || toCtl[0] != pi {
		t.Fatalf("after the datapath end's Send the controller holds %v, want the packet-in itself", toCtl)
	}
	fm := &openflow.FlowMod{BufferID: 7}
	if err := ctl.Send(fm); err != nil {
		t.Fatal(err)
	}
	if len(toDP) != 1 || toDP[0] != fm {
		t.Fatalf("after the controller end's Send the datapath holds %v, want the flow-mod itself", toDP)
	}
	if _, err := ctl.Recv(); err == nil {
		t.Error("Recv on a direct end succeeded")
	}

	_ = dp.Close()
	_ = ctl.Close()
	if closes["ctl"] != 1 || closes["dp"] != 1 {
		t.Errorf("closing both ends told the owners %v, want each once", closes)
	}
	if err := ctl.Send(fm); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if len(toDP) != 1 {
		t.Error("a Send after Close was delivered")
	}
}

package datapath

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/openflow"
	"repro/internal/packet"
)

// applyActions is the reference model execute is held to: the action list
// run the long way, sharing no code with execute. It calls out for each
// output and enqueue, in list order, with the port, the output's max_len (0
// for an enqueue) and the frame as the rewrites before it left it: the frame
// is decoded, the rewrites set the addresses on its Ethernet header, and an
// output re-serializes that header over the payload as it came, since a
// rewrite changes no byte above layer 2. A rewrite
// reaches only the outputs after it, as OpenFlow 1.0 specifies. The input
// frame is never written, and a frame handed to out is not written
// afterwards either. A frame that does not decode leaves unrewritten.
func applyActions(frame []byte, actions []openflow.Action, out func(port, maxLen uint16, frame []byte)) {
	var d packet.Decoded
	decoded, dirty := false, false
	rewrite := func(set func(*packet.Ethernet)) {
		if !decoded {
			if d.Decode(frame) != nil {
				return
			}
			decoded = true
		}
		set(&d.Eth)
		dirty = true
	}
	reserialize := func() {
		if !dirty {
			return
		}
		frame = d.Eth.Bytes()
		dirty = false
	}
	for _, a := range actions {
		switch act := a.(type) {
		case *openflow.ActionOutput:
			reserialize()
			out(act.Port, act.MaxLen, frame)
		case *openflow.ActionEnqueue:
			reserialize()
			out(act.Port, 0, frame)
		case *openflow.ActionSetDLSrc:
			rewrite(func(e *packet.Ethernet) { e.Src = act.Addr })
		case *openflow.ActionSetDLDst:
			rewrite(func(e *packet.Ethernet) { e.Dst = act.Addr })
		}
	}
}

// executeAndModel runs actions on frame, received on port 1, both through
// Datapath.execute in a rig of four recording ports and through the model,
// and fails unless the two send the same bytes out of the same ports in the
// same order and punt the same frames. It returns what left.
func executeAndModel(t *testing.T, frame []byte, actions []openflow.Action) []sentFrame {
	t.Helper()
	orig := append([]byte(nil), frame...)
	r := newPathRig(t)
	var run batchRun
	r.dp.execute(1, frame, actions, &run)
	run.done(r.dp)

	var want []sentFrame
	punts := 0
	applyActions(frame, actions, func(port, _ uint16, f []byte) {
		if port == openflow.PortController {
			punts++
			return
		}
		want = append(want, sentFrame{port, append([]byte(nil), f...)})
	})
	if !reflect.DeepEqual(r.sent, want) {
		t.Errorf("execute sent %v, the model %v", r.sent, want)
	}
	if got := int(r.dp.PuntCount()); got != punts {
		t.Errorf("execute punted %d frames, the model %d", got, punts)
	}
	if !bytes.Equal(frame, orig) {
		t.Error("the input frame was written")
	}
	return r.sent
}

// A MAC rewrite changes the Ethernet addresses and nothing else: the IP
// and TCP checksums still verify.
func TestExecuteRewrite(t *testing.T) {
	raw := packet.AppendTCPFrame(nil,
		packet.MustMAC("02:00:00:00:00:01"), packet.MustMAC("02:00:00:00:00:02"),
		packet.MustIP4("10.0.0.2"), packet.MustIP4("8.8.8.8"), 1234, 80, packet.TCPAck, 9, 0, []byte("data"))
	newSrc, newDst := packet.MustMAC("02:aa:00:00:00:01"), packet.MustMAC("02:ff:ff:ff:ff:ff")
	outs := executeAndModel(t, raw, []openflow.Action{
		&openflow.ActionSetDLDst{Addr: newDst},
		&openflow.ActionSetDLSrc{Addr: newSrc},
		output(3),
	})
	if len(outs) != 1 || outs[0].port != 3 {
		t.Fatalf("outputs = %v", outs)
	}
	var d packet.Decoded
	if err := d.Decode(outs[0].frame); err != nil {
		t.Fatal(err)
	}
	if d.Eth.Dst != newDst || d.Eth.Src != newSrc || d.IP.Dst != packet.MustIP4("8.8.8.8") || d.TCP.DstPort != 80 {
		t.Errorf("rewrite gave %v -> %v, %v:%d", d.Eth.Src, d.Eth.Dst, d.IP.Dst, d.TCP.DstPort)
	}
	if cs := packet.Checksum(d.Eth.Payload[:packet.IPv4HeaderLen], 0); cs != 0 {
		t.Error("IP checksum invalid after rewrite")
	}
}

// Every output of a list gets the frame, in list order, the controller's
// included.
func TestExecuteMultiOutput(t *testing.T) {
	f := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, nil)
	outs := executeAndModel(t, f, []openflow.Action{output(2), output(3), &openflow.ActionOutput{Port: openflow.PortController}})
	if len(outs) != 2 || outs[0].port != 2 || outs[1].port != 3 {
		t.Errorf("outputs = %v", outs)
	}
}

// OpenFlow semantics: a rewrite reaches only the outputs after it. An
// output placed before a rewrite gets the frame as it stood there, not the
// frame the whole list ends with.
func TestExecuteRewriteAppliesPerOutput(t *testing.T) {
	raw := packet.AppendUDPFrame(nil, packet.MAC{1}, packet.MAC{2}, packet.IP4{10, 0, 0, 1}, packet.IP4{10, 0, 0, 2}, 1, 2, nil)
	outs := executeAndModel(t, raw, []openflow.Action{
		output(2),
		&openflow.ActionSetDLDst{Addr: packet.MAC{9}},
		output(3),
		&openflow.ActionSetDLSrc{Addr: packet.MAC{7}},
		output(4),
	})
	if len(outs) != 3 {
		t.Fatalf("outputs = %v", outs)
	}
	if !bytes.Equal(outs[0].frame, raw) {
		t.Errorf("port 2 got %x, want the frame unrewritten %x", outs[0].frame, raw)
	}
	var d packet.Decoded
	for i, want := range []struct{ dst, src packet.MAC }{{packet.MAC{2}, packet.MAC{1}}, {packet.MAC{9}, packet.MAC{1}}, {packet.MAC{9}, packet.MAC{7}}} {
		if err := d.Decode(outs[i].frame); err != nil {
			t.Fatal(err)
		}
		if outs[i].port != uint16(i+2) || d.Eth.Dst != want.dst || d.Eth.Src != want.src {
			t.Errorf("output %d: port %d, dl_dst %v, dl_src %v; want port %d, %v, %v",
				i, outs[i].port, d.Eth.Dst, d.Eth.Src, i+2, want.dst, want.src)
		}
	}
}

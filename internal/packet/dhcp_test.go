package packet

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

// dhcpWith returns a BOOTP request whose options area is opts, exactly:
// no End byte or padding is added.
func dhcpWith(opts ...byte) []byte {
	b := make([]byte, dhcpFixedLen, dhcpFixedLen+len(opts))
	b[0], b[1], b[2] = DHCPBootRequest, 1, 6
	copy(b[236:], dhcpMagic[:])
	return append(b, opts...)
}

// optionReads is what every option reader says of one message.
type optionReads struct {
	msgType          DHCPMsgType
	hostname         string
	lease            time.Duration
	leaseOK          bool
	requested        IP4
	requestedOK      bool
	server, mask     IP4
	serverOK, maskOK bool
}

// leaseTime reads option 51, the lease duration.
func leaseTime(d *DHCP) (time.Duration, bool) {
	if v, ok := d.Option(DHCPOptLeaseTime); ok && len(v) == 4 {
		return time.Duration(binary.BigEndian.Uint32(v)) * time.Second, true
	}
	return 0, false
}

func readOptions(d *DHCP) optionReads {
	var r optionReads
	r.msgType = d.MsgType()
	r.hostname = d.Hostname()
	r.lease, r.leaseOK = leaseTime(d)
	r.requested, r.requestedOK = d.RequestedIP()
	r.server, r.serverOK = d.ServerID()
	r.mask, r.maskOK = d.SubnetMask()
	return r
}

// TestDHCPOptionReadersOnMalformedInput feeds the option readers what a
// careless or hostile client sends: truncated, zero-length, oversize and
// wrong-length options, and hostnames carrying bytes no hostname has. A
// reader either returns the option's value or says it is absent — it never
// panics, never reads past the option and never hands a newline or NUL on
// to the Leases table.
func TestDHCPOptionReadersOnMalformedInput(t *testing.T) {
	long := strings.Repeat("h", 255)
	variations := []struct {
		name string
		opts []byte
		err  error // DecodeFromBytes's verdict
		want optionReads
	}{
		{
			name: "Well formed",
			opts: []byte{53, 1, 3, 12, 4, 't', 'o', 'm', 's', 51, 4, 0, 0, 0x0e, 0x10, 50, 4, 192, 168, 1, 9,
				54, 4, 192, 168, 1, 1, 1, 4, 255, 255, 255, 0, 255},
			want: optionReads{msgType: DHCPRequest, hostname: "toms", lease: time.Hour, leaseOK: true,
				requested: IP4{192, 168, 1, 9}, requestedOK: true, server: IP4{192, 168, 1, 1}, serverOK: true,
				mask: IP4{255, 255, 255, 0}, maskOK: true},
		},
		{name: "No options", opts: nil},
		{name: "Code without a length", opts: []byte{12}, err: ErrTruncated},
		{name: "Length past the message", opts: []byte{12, 5, 'a', 'b'}, err: ErrTruncated},
		{name: "Address cut short", opts: []byte{50, 4, 192, 168}, err: ErrTruncated},
		{
			name: "Zero-length options",
			opts: []byte{53, 0, 12, 0, 51, 0, 50, 0, 54, 0, 1, 0, 255},
		},
		{
			name: "Wrong-length options",
			opts: []byte{53, 2, 1, 3, 51, 3, 0, 0, 60, 50, 5, 10, 0, 0, 1, 0, 54, 3, 10, 0, 0, 1, 2, 255, 255},
		},
		{
			name: "Oversize options",
			opts: append(append([]byte{51, 8, 0, 0, 0, 0, 0, 0, 0x0e, 0x10, 1, 16}, make([]byte, 16)...),
				append([]byte{12, 255}, long...)...),
			want: optionReads{hostname: long[:maxHostname]},
		},
		{
			name: "Option 255 bytes long at the very end",
			opts: append([]byte{12, 255}, long...),
			want: optionReads{hostname: long[:maxHostname]},
		},
		{name: "Hostname ending in NUL", opts: []byte{12, 6, 't', 'o', 'm', 's', 0, 0}, want: optionReads{hostname: "toms"}},
		{name: "Hostname with NUL inside", opts: []byte{12, 7, 't', 'v', 0, '\n', 'x', 'y', 'z'}, want: optionReads{hostname: "tv"}},
		{name: "Hostname with newline", opts: []byte{12, 8, 't', 'o', 'm', 's', '\n', 'm', 'a', 'c'}, want: optionReads{hostname: "tomsmac"}},
		{name: "Hostname with CR, tab and quote", opts: []byte{12, 7, 'a', '\r', 'b', '\t', 'c', '\'', 'd'}, want: optionReads{hostname: "abcd"}},
		{name: "Hostname of no legal byte", opts: []byte{12, 3, '\n', ' ', 0xff}, want: optionReads{}},
		{name: "Hostname with UTF-8", opts: append([]byte{12, 8}, "café-tv"...), want: optionReads{hostname: "caf-tv"}},
		{name: "Hostname FQDN", opts: append([]byte{12, 18}, "toms-mac-air.local"...), want: optionReads{hostname: "toms-mac-air.local"}},
		{
			name: "Repeated option: the first counts",
			opts: []byte{53, 1, 1, 53, 1, 3, 12, 1, 'a', 12, 1, 'b'},
			want: optionReads{msgType: DHCPDiscover, hostname: "a"},
		},
		{name: "Pads between options", opts: []byte{0, 0, 53, 1, 7, 0, 255, 12, 1, 'x'}, want: optionReads{msgType: DHCPRelease}},
	}
	for _, v := range variations {
		t.Run(v.name, func(t *testing.T) {
			var d DHCP
			err := d.DecodeFromBytes(dhcpWith(v.opts...))
			if !errors.Is(err, v.err) {
				t.Fatalf("DecodeFromBytes = %v, want %v", err, v.err)
			}
			if err != nil {
				return
			}
			if got := readOptions(&d); got != v.want {
				t.Errorf("readers say\n %+v\nwant\n %+v", got, v.want)
			}
		})
	}
}

// TestDHCPHostnameAllocatesOnlyItsString: a hostname that is already
// clean is copied out once, and nothing else.
func TestDHCPHostnameAllocatesOnlyItsString(t *testing.T) {
	var d DHCP
	if err := d.DecodeFromBytes(dhcpWith(append([]byte{12, 12}, "toms-mac-air"...)...)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Hostname() }); n > 1 {
		t.Errorf("Hostname allocates %.0f times, want at most 1", n)
	}
}

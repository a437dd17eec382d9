package pdu

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Every encoder appends to a caller buffer. Its bytes are the ones the
// unsized, append-as-you-go writer produced (the goldens below were recorded
// from it), they land after whatever dst already holds, an encode into nil
// allocates its output once at its exact size, and an encode into a buffer
// with room allocates nothing.
func TestEncodersPresizedAndUnchanged(t *testing.T) {
	pl := []byte("ping request: 32 bytes payload..")
	subs := []MACSubPDU{{LCID: 4, Payload: pl[:6]}, {LCID: LCIDShortBSR, Payload: []byte{0x3A}}}
	cases := []struct {
		name   string
		encode func(dst []byte) ([]byte, error)
		want   string
	}{
		{"sdap-ul", func(dst []byte) ([]byte, error) { return SDAPHeader{DataPDU: true, QFI: 5}.Append(dst, pl), nil },
			"8570696e6720726571756573743a203332206279746573207061796c6f61642e2e"},
		{"sdap-dl", func(dst []byte) ([]byte, error) {
			return SDAPHeader{RDI: true, QFI: 63, Downlink: true}.Append(dst, pl[:3]), nil
		}, "bf70696e"},
		{"pdcp12", PDCPDataPDU{SN: 0xABC, SNBits: PDCPSN12, Payload: pl[:5], MACI: []byte{1, 2, 3, 4}}.Append,
			"8abc70696e672001020304"},
		{"pdcp18", PDCPDataPDU{SN: 0x2ABCD, SNBits: PDCPSN18, Payload: pl[:5]}.Append,
			"82abcd70696e6720"},
		{"rlc-full", RLCUMPDU{SI: SIFull, Payload: pl[:4]}.Append, "0070696e67"},
		{"rlc-first", RLCUMPDU{SI: SIFirst, SN: 9, Payload: pl[:4]}.Append, "4970696e67"},
		{"rlc-middle", RLCUMPDU{SI: SIMiddle, SN: 9, SO: 0x1234, Payload: pl[:4]}.Append, "c9123470696e67"},
		{"rlc-last", RLCUMPDU{SI: SILast, SN: 63, SO: 7, Payload: pl[:2]}.Append, "bf00077069"},
		{"mac-exact", func(dst []byte) ([]byte, error) { return AppendMACPDU(dst, subs, 10) },
			"040670696e6720723d3a"},
		{"mac-pad", func(dst []byte) ([]byte, error) { return AppendMACPDU(dst, subs, 24) },
			"040670696e6720723d3a3f00000000000000000000000000"},
		{"gtpu", func(dst []byte) ([]byte, error) { return GTPUHeader{TEID: 0x42}.Append(dst, pl[:4]) },
			"30ff00040000004270696e67"},
	}
	for _, c := range cases {
		got, err := c.encode(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("%s = %x, want %s", c.name, got, c.want)
		}
		prefix := []byte{0xDE, 0xAD, 0xBE}
		after, err := c.encode(bytes.Clone(prefix))
		if err != nil || !bytes.Equal(after[:len(prefix)], prefix) || !bytes.Equal(after[len(prefix):], got) {
			t.Errorf("%s after a prefix = %x (%v), want %x then %x", c.name, after, err, prefix, got)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: grew %dB for a %dB encoding", c.name, cap(got), len(got))
		}
		if n := testing.AllocsPerRun(50, func() { c.encode(nil) }); n != 1 {
			t.Errorf("%s: %v allocs per encode into nil, want 1", c.name, n)
		}
		buf := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(50, func() { c.encode(buf[:0]) }); n != 0 {
			t.Errorf("%s: %v allocs per encode into a reused buffer, want 0", c.name, n)
		}
	}
}

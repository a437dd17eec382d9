package pdu

import (
	"encoding/hex"
	"testing"
)

// Each encoder sizes its writer to the exact encoded length (tbBytes for a
// MAC PDU), so an encode is one allocation with no regrow, and the bytes are
// the ones the unsized, append-as-you-go writer produced: the goldens below
// were recorded from it.
func TestEncodersPresizedAndUnchanged(t *testing.T) {
	pl := []byte("ping request: 32 bytes payload..")
	subs := []MACSubPDU{{LCID: 4, Payload: pl[:6]}, {LCID: LCIDShortBSR, Payload: []byte{0x3A}}}
	cases := []struct {
		name   string
		encode func() ([]byte, error)
		want   string
	}{
		{"sdap-ul", func() ([]byte, error) { return SDAPHeader{DataPDU: true, QFI: 5}.Encode(pl), nil },
			"8570696e6720726571756573743a203332206279746573207061796c6f61642e2e"},
		{"sdap-dl", func() ([]byte, error) { return SDAPHeader{RDI: true, QFI: 63, Downlink: true}.Encode(pl[:3]), nil },
			"bf70696e"},
		{"pdcp12", PDCPDataPDU{SN: 0xABC, SNBits: PDCPSN12, Payload: pl[:5], MACI: []byte{1, 2, 3, 4}}.Encode,
			"8abc70696e672001020304"},
		{"pdcp18", PDCPDataPDU{SN: 0x2ABCD, SNBits: PDCPSN18, Payload: pl[:5]}.Encode,
			"82abcd70696e6720"},
		{"rlc-full", RLCUMPDU{SI: SIFull, Payload: pl[:4]}.Encode, "0070696e67"},
		{"rlc-first", RLCUMPDU{SI: SIFirst, SN: 9, Payload: pl[:4]}.Encode, "4970696e67"},
		{"rlc-middle", RLCUMPDU{SI: SIMiddle, SN: 9, SO: 0x1234, Payload: pl[:4]}.Encode, "c9123470696e67"},
		{"rlc-last", RLCUMPDU{SI: SILast, SN: 63, SO: 7, Payload: pl[:2]}.Encode, "bf00077069"},
		{"mac-exact", func() ([]byte, error) { return EncodeMACPDU(subs, 10) },
			"040670696e6720723d3a"},
		{"mac-pad", func() ([]byte, error) { return EncodeMACPDU(subs, 24) },
			"040670696e6720723d3a3f00000000000000000000000000"},
	}
	for _, c := range cases {
		got, err := c.encode()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("%s = %x, want %s", c.name, got, c.want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: writer sized %dB for a %dB encoding", c.name, cap(got), len(got))
		}
		if n := testing.AllocsPerRun(50, func() { c.encode() }); n != 1 {
			t.Errorf("%s: %v allocs per encode, want 1", c.name, n)
		}
	}
}

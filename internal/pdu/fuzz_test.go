package pdu

import (
	"bytes"
	"testing"
)

// The decoders face bits that came off a radio: anything. They must never
// panic and never return success with inconsistent structure. The fuzz
// targets run their seed corpus as part of the normal test suite and can be
// expanded with `go test -fuzz`.

// fuzzPrefix is the non-empty dst every accepted PDU is re-encoded after.
var fuzzPrefix = []byte{0xC3, 0x5A, 0x00, 0xFF, 0x81}

// checkAppend holds an append encoder to its contract: encoding after a
// non-empty dst leaves the prefix as it was and appends exactly the bytes the
// encoding into nil gives.
func checkAppend(t *testing.T, encode func(dst []byte) ([]byte, error)) []byte {
	t.Helper()
	want, err := encode(nil)
	if err != nil {
		t.Fatalf("decoded PDU does not re-encode: %v", err)
	}
	// Spare capacity after the prefix holds stale bytes the encoder must
	// overwrite, not read.
	dst := append(bytes.Clone(fuzzPrefix), bytes.Repeat([]byte{0xEE}, len(want)+8)...)[:len(fuzzPrefix)]
	got, err := encode(dst)
	if err != nil {
		t.Fatalf("re-encode after a prefix failed: %v", err)
	}
	if !bytes.Equal(got[:len(fuzzPrefix)], fuzzPrefix) {
		t.Fatalf("encoder overwrote the prefix: %x", got[:len(fuzzPrefix)])
	}
	if !bytes.Equal(got[len(fuzzPrefix):], want) {
		t.Fatalf("appended %x, encoding into nil gives %x", got[len(fuzzPrefix):], want)
	}
	return want
}

func FuzzDecodeMACPDU(f *testing.F) {
	valid, _ := AppendMACPDU(nil, []MACSubPDU{{LCID: 4, Payload: []byte("seed")}}, 32)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x3F})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := DecodeMACPDU(nil, data)
		if err != nil {
			return
		}
		for _, s := range subs {
			if s.LCID == LCIDPadding {
				t.Fatal("padding leaked out of the decoder")
			}
		}
		// Decoding after existing subPDUs appends the same ones.
		more, err := DecodeMACPDU(subs[:len(subs):len(subs)], data)
		if err != nil || len(more) != 2*len(subs) {
			t.Fatalf("decode into a non-empty dst: %d subPDUs after %d (%v)", len(more), len(subs), err)
		}
		// Every decoded subPDU re-encodes, and decodes back to itself.
		if enc, err := AppendMACPDU(nil, subs, 0); err == nil {
			checkAppend(t, func(dst []byte) ([]byte, error) { return AppendMACPDU(dst, subs, 0) })
			back, err := DecodeMACPDU(nil, enc)
			if err != nil || len(back) != len(subs) {
				t.Fatalf("re-decode: %d subPDUs, want %d (%v)", len(back), len(subs), err)
			}
		}
	})
}

func FuzzDecodeRLCUM(f *testing.F) {
	seed, _ := (RLCUMPDU{SI: SIMiddle, SN: 3, SO: 100, Payload: []byte("x")}).Append(nil)
	f.Add(seed)
	f.Add([]byte{0xC0, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeRLCUM(data)
		if err != nil {
			return
		}
		if len(p.Payload) == 0 {
			t.Fatal("decoder returned empty payload without error")
		}
		// Round trip: decode(encode(decode(x))) must be stable.
		enc := checkAppend(t, p.Append)
		p2, err := DecodeRLCUM(enc)
		if err != nil || p2.SI != p.SI || p2.SN != p.SN || p2.SO != p.SO || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v (%v)", p, p2, err)
		}
	})
}

func FuzzDecodeGTPU(f *testing.F) {
	seed, _ := GTPUHeader{TEID: 7}.Append(nil, []byte("payload"))
	f.Add(seed)
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeGTPU(data)
		if err != nil {
			return
		}
		// Accepted packets must round-trip exactly.
		enc := checkAppend(t, func(dst []byte) ([]byte, error) { return h.Append(dst, payload) })
		if !bytes.Equal(enc, data) {
			t.Fatalf("GTP-U round trip broken: %x vs %x", enc, data)
		}
	})
}

func FuzzDecodePDCP(f *testing.F) {
	seed, _ := (PDCPDataPDU{SN: 1, SNBits: PDCPSN12, Payload: []byte("z")}).Append(nil)
	f.Add(seed, true)
	f.Add([]byte{0x80, 0x01, 0xFF, 1, 2, 3, 4}, false)
	f.Fuzz(func(t *testing.T, data []byte, maci bool) {
		p, err := DecodePDCP(data, PDCPSN12, maci)
		if err != nil {
			return
		}
		if maci && len(p.MACI) != 4 {
			t.Fatal("accepted PDU without MAC-I")
		}
		if p.SN >= 1<<12 {
			t.Fatalf("decoded SN %d out of range", p.SN)
		}
		// Accepted PDUs re-encode (reserved bits cleared) and decode back.
		enc := checkAppend(t, p.Append)
		if p2, err := DecodePDCP(enc, PDCPSN12, maci); err != nil || p2.SN != p.SN || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("PDCP re-decode mismatch: %+v vs %+v (%v)", p, p2, err)
		}
	})
}

package pdu

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSDAPRoundTrip(t *testing.T) {
	for _, dl := range []bool{false, true} {
		h := SDAPHeader{DataPDU: true, RDI: dl, RQI: dl, QFI: 9, Downlink: dl}
		payload := []byte("qos flow nine")
		enc := h.Append(nil, payload)
		if len(enc) != 1+len(payload) {
			t.Fatalf("SDAP adds %d bytes, want 1", len(enc)-len(payload))
		}
		got, p2, err := DecodeSDAP(enc, dl)
		if err != nil {
			t.Fatal(err)
		}
		if got.QFI != 9 || !bytes.Equal(p2, payload) {
			t.Fatalf("SDAP round trip: %+v %q", got, p2)
		}
		if dl && (!got.RDI || !got.RQI) {
			t.Fatal("DL flags lost")
		}
		if !dl && !got.DataPDU {
			t.Fatal("UL D/C lost")
		}
	}
	if _, _, err := DecodeSDAP(nil, false); err == nil {
		t.Fatal("empty SDAP accepted")
	}
}

func TestSDAPQFIMasking(t *testing.T) {
	h := SDAPHeader{QFI: 0xFF} // 6-bit field
	enc := h.Append(nil, nil)
	got, _, _ := DecodeSDAP(enc, false)
	if got.QFI != 0x3F {
		t.Fatalf("QFI = %d, want masked 63", got.QFI)
	}
}

func TestPDCPRoundTrip12And18(t *testing.T) {
	for _, sn := range []PDCPSNBits{PDCPSN12, PDCPSN18} {
		p := PDCPDataPDU{SN: 100, SNBits: sn, Payload: []byte("ciphered"), MACI: []byte{1, 2, 3, 4}}
		enc, err := p.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != sn.HeaderBytes()+8+4 {
			t.Fatalf("PDCP %v size %d", sn, len(enc))
		}
		got, err := DecodePDCP(enc, sn, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.SN != 100 || !bytes.Equal(got.Payload, []byte("ciphered")) || !bytes.Equal(got.MACI, []byte{1, 2, 3, 4}) {
			t.Fatalf("PDCP %v round trip: %+v", sn, got)
		}
	}
}

func TestPDCPWithoutMACI(t *testing.T) {
	p := PDCPDataPDU{SN: 4095, SNBits: PDCPSN12, Payload: []byte{0xAA}}
	enc, err := p.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePDCP(enc, PDCPSN12, false)
	if err != nil || got.MACI != nil || got.SN != 4095 {
		t.Fatalf("PDCP no-MACI: %+v %v", got, err)
	}
}

func TestPDCPErrors(t *testing.T) {
	if _, err := (PDCPDataPDU{SN: 1 << 12, SNBits: PDCPSN12}).Append(nil); err == nil {
		t.Fatal("overflowing SN accepted")
	}
	if _, err := (PDCPDataPDU{SN: 1, SNBits: 7}).Append(nil); err == nil {
		t.Fatal("bad SN length accepted")
	}
	if _, err := (PDCPDataPDU{SN: 1, SNBits: PDCPSN12, MACI: []byte{1}}).Append(nil); err == nil {
		t.Fatal("short MAC-I accepted")
	}
	if _, err := DecodePDCP([]byte{0x80}, PDCPSN12, false); err == nil {
		t.Fatal("truncated PDCP accepted")
	}
	// D/C=0 (control PDU) is rejected by this decoder.
	if _, err := DecodePDCP([]byte{0x00, 0x00, 0xFF}, PDCPSN12, false); err == nil {
		t.Fatal("control PDU accepted")
	}
}

func TestRLCFullSDU(t *testing.T) {
	pdus, err := SegmentSDU(nil, []byte("fits"), 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdus) != 1 || pdus[0].SI != SIFull {
		t.Fatalf("small SDU segmented: %+v", pdus)
	}
	enc, err := pdus[0].Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 5 {
		t.Fatalf("full-SDU header not 1 byte: %d", len(enc))
	}
	dec, err := DecodeRLCUM(enc)
	if err != nil || dec.SI != SIFull || !bytes.Equal(dec.Payload, []byte("fits")) {
		t.Fatalf("RLC full round trip: %+v %v", dec, err)
	}
}

func TestRLCSegmentation(t *testing.T) {
	sdu := make([]byte, 1000)
	for i := range sdu {
		sdu[i] = byte(i)
	}
	pdus, err := SegmentSDU(nil, sdu, 42, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdus) < 4 {
		t.Fatalf("1000B/300B produced %d segments", len(pdus))
	}
	if pdus[0].SI != SIFirst || pdus[len(pdus)-1].SI != SILast {
		t.Fatalf("segment SIs wrong: %v … %v", pdus[0].SI, pdus[len(pdus)-1].SI)
	}
	for i, p := range pdus {
		enc, err := p.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > 300 {
			t.Fatalf("segment %d encodes to %dB > 300", i, len(enc))
		}
		dec, err := DecodeRLCUM(enc)
		if err != nil || dec.SN != 42 {
			t.Fatalf("segment %d round trip: %+v %v", i, dec, err)
		}
	}
	got, err := ReassembleSDU(pdus)
	if err != nil || !bytes.Equal(got, sdu) {
		t.Fatalf("reassembly failed: %v", err)
	}
}

func TestRLCReassembleOutOfOrder(t *testing.T) {
	sdu := []byte("out of order delivery within one SDU works fine in UM mode")
	pdus, _ := SegmentSDU(nil, sdu, 1, 20)
	perm := []RLCUMPDU{pdus[len(pdus)-1]}
	perm = append(perm, pdus[:len(pdus)-1]...)
	got, err := ReassembleSDU(perm)
	if err != nil || !bytes.Equal(got, sdu) {
		t.Fatalf("out-of-order reassembly: %v", err)
	}
}

// Missing or duplicated segments are reported as ErrIncompleteSDU, which a
// receiver keeps buffering on; an inconsistency such as overlap is any other
// error, which it drops on.
func TestRLCReassembleErrors(t *testing.T) {
	sdu := make([]byte, 100)
	pdus, _ := SegmentSDU(nil, sdu, 1, 40)
	for name, segs := range map[string][]RLCUMPDU{
		"missing last":   pdus[:len(pdus)-1],
		"missing first":  pdus[1:],
		"missing middle": {pdus[0], pdus[2]},
		"duplicated":     append([]RLCUMPDU{pdus[1]}, pdus...),
	} {
		if _, err := ReassembleSDU(segs); !errors.Is(err, ErrIncompleteSDU) {
			t.Errorf("%s: err = %v, want ErrIncompleteSDU", name, err)
		}
	}
	if _, err := ReassembleSDU(nil); err == nil {
		t.Fatal("no segments accepted")
	}
	shifted := pdus[1]
	shifted.SO -= 5 // same byte count, but overlapping the first segment
	if _, err := ReassembleSDU([]RLCUMPDU{pdus[0], shifted, pdus[2]}); err == nil || errors.Is(err, ErrIncompleteSDU) {
		t.Fatalf("overlapping segments: err = %v, want a non-incomplete error", err)
	}
}

func TestRLCEncodeErrors(t *testing.T) {
	if _, err := (RLCUMPDU{SI: SIFull, SN: 64, Payload: []byte{1}}).Append(nil); err == nil {
		t.Fatal("7-bit SN accepted")
	}
	if _, err := (RLCUMPDU{SI: SIFull}).Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := SegmentSDU(nil, nil, 0, 100); err == nil {
		t.Fatal("empty SDU accepted")
	}
	if _, err := SegmentSDU(nil, []byte{1, 2}, 0, 3); err == nil {
		t.Fatal("tiny maxPDU accepted")
	}
	if _, err := DecodeRLCUM([]byte{0}); err == nil {
		t.Fatal("1-byte PDU accepted")
	}
}

func TestPropertyRLCSegmentReassemble(t *testing.T) {
	f := func(sdu []byte, maxRaw uint8) bool {
		if len(sdu) == 0 {
			return true
		}
		maxPDU := int(maxRaw)%200 + 8
		pdus, err := SegmentSDU(nil, sdu, 7, maxPDU)
		if err != nil {
			return false
		}
		for _, p := range pdus {
			enc, err := p.Append(nil)
			if err != nil || len(enc) > maxPDU {
				return false
			}
			if _, err := DecodeRLCUM(enc); err != nil {
				return false
			}
		}
		got, err := ReassembleSDU(pdus)
		return err == nil && bytes.Equal(got, sdu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACPDURoundTrip(t *testing.T) {
	const bsr = 2<<5 | 17 // LCG 2, buffer-size index 17
	subs := []MACSubPDU{
		{LCID: 4, Payload: []byte("an rlc pdu")},
		{LCID: LCIDShortBSR, Payload: []byte{bsr}},
		{LCID: 5, Payload: make([]byte, 300)}, // forces 16-bit L
	}
	enc, err := AppendMACPDU(nil, subs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 400 {
		t.Fatalf("padded PDU = %dB, want 400", len(enc))
	}
	got, err := DecodeMACPDU(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d subPDUs, want 3 (padding dropped)", len(got))
	}
	if !bytes.Equal(got[0].Payload, []byte("an rlc pdu")) || got[2].LCID != 5 || len(got[2].Payload) != 300 {
		t.Fatal("subPDU content lost")
	}
	if got[1].LCID != LCIDShortBSR || !bytes.Equal(got[1].Payload, []byte{bsr}) {
		t.Fatalf("short BSR subPDU = %+v, want LCID %d payload %#x", got[1], LCIDShortBSR, bsr)
	}
}

func TestMACPDUNoPadding(t *testing.T) {
	subs := []MACSubPDU{{LCID: 1, Payload: []byte{1, 2, 3}}}
	enc, err := AppendMACPDU(nil, subs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 5 {
		t.Fatalf("unpadded PDU = %dB, want 5", len(enc))
	}
	got, err := DecodeMACPDU(nil, enc)
	if err != nil || len(got) != 1 {
		t.Fatalf("decode: %v %v", got, err)
	}
}

func TestMACPDUErrors(t *testing.T) {
	if _, err := AppendMACPDU(nil, []MACSubPDU{{LCID: 1, Payload: make([]byte, 100)}}, 10); err == nil {
		t.Fatal("overflow TB accepted")
	}
	if _, err := AppendMACPDU(nil, []MACSubPDU{{LCID: LCIDPadding}}, 0); err == nil {
		t.Fatal("explicit padding accepted")
	}
	if _, err := AppendMACPDU(nil, []MACSubPDU{{LCID: 45, Payload: []byte{1}}}, 0); err == nil {
		t.Fatal("reserved LCID accepted")
	}
	if _, err := AppendMACPDU(nil, []MACSubPDU{{LCID: LCIDShortBSR, Payload: []byte{1, 2}}}, 0); err == nil {
		t.Fatal("2-byte short BSR accepted")
	}
	if _, err := DecodeMACPDU(nil, []byte{0x01, 0xFF}); err == nil {
		t.Fatal("truncated subPDU accepted")
	}
}

func TestGTPURoundTrip(t *testing.T) {
	payload := []byte("ip packet toward the data network")
	enc, err := GTPUHeader{TEID: 0xDEADBEEF}.Append(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 8+len(payload) {
		t.Fatalf("GTP-U adds %d bytes, want 8", len(enc)-len(payload))
	}
	h, p, err := DecodeGTPU(enc)
	if err != nil || h.TEID != 0xDEADBEEF || !bytes.Equal(p, payload) {
		t.Fatalf("GTP-U round trip: %+v %v", h, err)
	}
}

func TestGTPUErrors(t *testing.T) {
	if _, _, err := DecodeGTPU([]byte{1, 2, 3}); err == nil {
		t.Fatal("short GTP-U accepted")
	}
	enc, _ := GTPUHeader{TEID: 1}.Append(nil, []byte{1, 2, 3})
	enc[0] = 0x40 // version 2
	if _, _, err := DecodeGTPU(enc); err == nil {
		t.Fatal("wrong version accepted")
	}
	enc2, _ := GTPUHeader{TEID: 1}.Append(nil, []byte{1})
	enc2[1] = 0x01 // echo request, not T-PDU
	if _, _, err := DecodeGTPU(enc2); err == nil {
		t.Fatal("non-T-PDU accepted")
	}
	enc3, _ := GTPUHeader{TEID: 1}.Append(nil, []byte{1, 2})
	if _, _, err := DecodeGTPU(enc3[:len(enc3)-1]); err == nil {
		t.Fatal("bad length accepted")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	e := Echo{ID: 7, Seq: 99, SentNs: 123456789, Reply: true, Size: 64}
	enc, err := e.Append(nil)
	if err != nil || len(enc) != 64 {
		t.Fatalf("echo encode: %d %v", len(enc), err)
	}
	got, err := DecodeEcho(enc)
	if err != nil || got.ID != 7 || got.Seq != 99 || got.SentNs != 123456789 || !got.Reply || got.Size != 64 {
		t.Fatalf("echo round trip: %+v %v", got, err)
	}
	if _, err := (Echo{Size: 5}).Append(nil); err == nil {
		t.Fatal("undersized echo accepted")
	}
	if _, err := DecodeEcho(make([]byte, 4)); err == nil {
		t.Fatal("short echo accepted")
	}
}

// Property: the full UL header chain (SDAP→PDCP→RLC→MAC) round-trips and
// its overhead is exactly the sum of the individual headers.
func TestPropertyFullHeaderChain(t *testing.T) {
	f := func(app []byte) bool {
		if len(app) == 0 || len(app) > 1000 {
			return true
		}
		sdap := SDAPHeader{DataPDU: true, QFI: 1}.Append(nil, app)
		pdcp, err := (PDCPDataPDU{SN: 9, SNBits: PDCPSN12, Payload: sdap}).Append(nil)
		if err != nil {
			return false
		}
		segs, err := SegmentSDU(nil, pdcp, 3, 1<<15)
		if err != nil || len(segs) != 1 {
			return false
		}
		rlc, err := segs[0].Append(nil)
		if err != nil {
			return false
		}
		mac, err := AppendMACPDU(nil, []MACSubPDU{{LCID: 4, Payload: rlc}}, 0)
		if err != nil {
			return false
		}
		// Decode all the way back.
		subs, err := DecodeMACPDU(nil, mac)
		if err != nil || len(subs) != 1 {
			return false
		}
		rp, err := DecodeRLCUM(subs[0].Payload)
		if err != nil {
			return false
		}
		pp, err := DecodePDCP(rp.Payload, PDCPSN12, false)
		if err != nil {
			return false
		}
		_, got, err := DecodeSDAP(pp.Payload, false)
		return err == nil && bytes.Equal(got, app)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentInfoStringsAndHeaderBytes(t *testing.T) {
	if SIFull.String() != "full" || SIFirst.String() != "first" ||
		SILast.String() != "last" || SIMiddle.String() != "middle" {
		t.Fatal("SI strings wrong")
	}
	if SegmentInfo(9).String() != "si?" {
		t.Fatal("invalid SI string wrong")
	}
	if (RLCUMPDU{SI: SIFull}).HeaderBytes() != 1 || (RLCUMPDU{SI: SIMiddle}).HeaderBytes() != 3 {
		t.Fatal("UM header sizes wrong")
	}
}

func TestPDCPHeaderBytes(t *testing.T) {
	if PDCPSN12.HeaderBytes() != 2 || PDCPSN18.HeaderBytes() != 3 || PDCPSNBits(7).HeaderBytes() != 0 {
		t.Fatal("PDCP header sizes wrong")
	}
}

package pdu

import (
	"errors"
	"fmt"

	"urllcsim/internal/bits"
)

// SegmentInfo is the RLC UM SI field (TS 38.322 §6.2.2.3).
type SegmentInfo byte

const (
	SIFull   SegmentInfo = 0b00 // complete SDU
	SIFirst  SegmentInfo = 0b01 // first segment
	SILast   SegmentInfo = 0b10 // last segment
	SIMiddle SegmentInfo = 0b11 // middle segment
)

func (s SegmentInfo) String() string {
	switch s {
	case SIFull:
		return "full"
	case SIFirst:
		return "first"
	case SILast:
		return "last"
	case SIMiddle:
		return "middle"
	default:
		return "si?"
	}
}

// RLCUMPDU is an RLC UMD PDU with 6-bit SN (TS 38.322 §6.2.2.3): complete
// SDUs carry only the SI octet; segments add the SN; middle/last segments
// add a 16-bit segmentation offset.
type RLCUMPDU struct {
	SI      SegmentInfo
	SN      byte   // 6-bit, absent on the wire for SIFull
	SO      uint16 // segment offset, present for SILast/SIMiddle
	Payload []byte
}

// Encode renders the PDU.
func (p RLCUMPDU) Encode() ([]byte, error) {
	if p.SN >= 64 {
		return nil, fmt.Errorf("pdu: RLC SN %d exceeds 6 bits", p.SN)
	}
	if len(p.Payload) == 0 {
		return nil, fmt.Errorf("pdu: RLC PDU without payload")
	}
	w := bits.NewWriterSize(p.HeaderBytes() + len(p.Payload))
	w.WriteBits(uint64(p.SI), 2)
	switch p.SI {
	case SIFull:
		w.WriteBits(0, 6) // R
	case SIFirst:
		w.WriteBits(uint64(p.SN), 6)
	case SILast, SIMiddle:
		w.WriteBits(uint64(p.SN), 6)
		w.WriteBits(uint64(p.SO), 16)
	default:
		return nil, fmt.Errorf("pdu: invalid SI %d", p.SI)
	}
	w.WriteBytes(p.Payload)
	return w.Bytes(), nil
}

// HeaderBytes returns the header length for the PDU's SI.
func (p RLCUMPDU) HeaderBytes() int {
	switch p.SI {
	case SIFull, SIFirst:
		return 1
	default:
		return 3
	}
}

// DecodeRLCUM parses an RLC UMD PDU with 6-bit SN.
func DecodeRLCUM(buf []byte) (RLCUMPDU, error) {
	var p RLCUMPDU
	if len(buf) < 2 {
		return p, fmt.Errorf("pdu: RLC PDU too short (%dB)", len(buf))
	}
	r := bits.NewReader(buf)
	si, _ := r.ReadBits(2)
	p.SI = SegmentInfo(si)
	switch p.SI {
	case SIFull:
		r.ReadBits(6)
	case SIFirst:
		sn, _ := r.ReadBits(6)
		p.SN = byte(sn)
	case SILast, SIMiddle:
		sn, _ := r.ReadBits(6)
		p.SN = byte(sn)
		so, err := r.ReadBits(16)
		if err != nil {
			return p, fmt.Errorf("pdu: RLC segment missing SO: %w", err)
		}
		p.SO = uint16(so)
	}
	payload, err := r.Rest()
	if err != nil {
		return p, err
	}
	if len(payload) == 0 {
		return p, fmt.Errorf("pdu: RLC PDU without payload")
	}
	p.Payload = payload
	return p, nil
}

// SegmentSDU splits an RLC SDU into UMD PDUs whose encoded size does not
// exceed maxPDU bytes each. A single PDU (SIFull) is produced when it fits.
// The SN is stamped on every segment of the SDU.
func SegmentSDU(sdu []byte, sn byte, maxPDU int) ([]RLCUMPDU, error) {
	if maxPDU < 4 {
		return nil, fmt.Errorf("pdu: maxPDU %d too small to ever carry a segment", maxPDU)
	}
	if len(sdu) == 0 {
		return nil, fmt.Errorf("pdu: empty RLC SDU")
	}
	if len(sdu)+1 <= maxPDU {
		return []RLCUMPDU{{SI: SIFull, Payload: sdu}}, nil
	}
	var out []RLCUMPDU
	off := 0
	for off < len(sdu) {
		var si SegmentInfo
		var hdr int
		switch {
		case off == 0:
			si, hdr = SIFirst, 1
		case len(sdu)-off+3 <= maxPDU:
			si, hdr = SILast, 3
		default:
			si, hdr = SIMiddle, 3
		}
		take := maxPDU - hdr
		if take > len(sdu)-off {
			take = len(sdu) - off
		}
		out = append(out, RLCUMPDU{SI: si, SN: sn, SO: uint16(off), Payload: sdu[off : off+take]})
		off += take
	}
	return out, nil
}

// ErrIncompleteSDU marks a reassembly that lacks segments the SDU still
// needs: the receiver keeps buffering instead of dropping. Test for it with
// errors.Is; the message around it is free text.
var ErrIncompleteSDU = errors.New("pdu: incomplete SDU")

// ReassembleSDU inverts SegmentSDU given all segments of one SN (any order).
// It verifies contiguity and returns the SDU. While segments are missing the
// error wraps ErrIncompleteSDU; any other error is an inconsistency.
func ReassembleSDU(segs []RLCUMPDU) ([]byte, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("pdu: no segments")
	}
	if len(segs) == 1 && segs[0].SI == SIFull {
		return segs[0].Payload, nil
	}
	total := 0
	var last *RLCUMPDU
	for i := range segs {
		total += len(segs[i].Payload)
		if segs[i].SI == SILast {
			if last != nil {
				return nil, fmt.Errorf("pdu: two last segments")
			}
			last = &segs[i]
		}
	}
	if last == nil {
		return nil, fmt.Errorf("%w: last segment missing", ErrIncompleteSDU)
	}
	if want := int(last.SO) + len(last.Payload); want != total {
		return nil, fmt.Errorf("%w: segments cover %dB, last ends at %dB", ErrIncompleteSDU, total, want)
	}
	out := make([]byte, total)
	seen := make([]bool, total)
	for i := range segs {
		so := int(segs[i].SO)
		if segs[i].SI == SIFirst && so != 0 {
			return nil, fmt.Errorf("pdu: first segment with SO=%d", so)
		}
		if so+len(segs[i].Payload) > total {
			return nil, fmt.Errorf("pdu: segment overruns SDU")
		}
		copy(out[so:], segs[i].Payload)
		for j := so; j < so+len(segs[i].Payload); j++ {
			if seen[j] {
				return nil, fmt.Errorf("pdu: overlapping segments at byte %d", j)
			}
			seen[j] = true
		}
	}
	for j, s := range seen {
		if !s {
			return nil, fmt.Errorf("%w: gap at byte %d", ErrIncompleteSDU, j)
		}
	}
	return out, nil
}

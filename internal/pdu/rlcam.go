package pdu

import (
	"fmt"

	"urllcsim/internal/bits"
)

// RLCAMPDU is an RLC AMD PDU with 12-bit SN (TS 38.322 §6.2.2.4):
// D/C(1) P(1) SI(2) SN(12) [SO(16)] payload. AM adds the poll bit and ARQ
// on top of UM's segmentation machinery.
type RLCAMPDU struct {
	Poll    bool
	SI      SegmentInfo
	SN      uint16 // 12-bit
	SO      uint16 // present for SILast/SIMiddle
	Payload []byte
}

// Append appends the encoded PDU to dst and returns the extended slice. On
// error dst is returned as it was.
func (p RLCAMPDU) Append(dst []byte) ([]byte, error) {
	if p.SN >= 1<<12 {
		return dst, fmt.Errorf("pdu: AM SN %d exceeds 12 bits", p.SN)
	}
	if len(p.Payload) == 0 {
		return dst, fmt.Errorf("pdu: AM PDU without payload")
	}
	if p.SI > SIMiddle {
		return dst, fmt.Errorf("pdu: invalid SI %d", p.SI)
	}
	var w bits.Writer
	w.Reset(grow(dst, p.HeaderBytes()+len(p.Payload)))
	w.WriteBit(1) // D/C = data
	w.WriteBool(p.Poll)
	w.WriteBits(uint64(p.SI), 2)
	w.WriteBits(uint64(p.SN), 12)
	if p.SI == SILast || p.SI == SIMiddle {
		w.WriteBits(uint64(p.SO), 16)
	}
	w.WriteBytes(p.Payload)
	return w.Bytes(), nil
}

// HeaderBytes returns the AMD header length for the PDU's SI.
func (p RLCAMPDU) HeaderBytes() int {
	if p.SI == SILast || p.SI == SIMiddle {
		return 4
	}
	return 2
}

// DecodeRLCAM parses an AMD PDU; it rejects control (D/C=0) PDUs — use
// DecodeRLCStatus for those.
func DecodeRLCAM(buf []byte) (RLCAMPDU, error) {
	var p RLCAMPDU
	if len(buf) < 3 {
		return p, fmt.Errorf("pdu: AM PDU too short (%dB)", len(buf))
	}
	r := bits.NewReader(buf)
	dc, _ := r.ReadBit()
	if dc != 1 {
		return p, fmt.Errorf("pdu: not an AMD PDU (D/C=0)")
	}
	p.Poll, _ = r.ReadBool()
	si, _ := r.ReadBits(2)
	p.SI = SegmentInfo(si)
	sn, _ := r.ReadBits(12)
	p.SN = uint16(sn)
	if p.SI == SILast || p.SI == SIMiddle {
		so, err := r.ReadBits(16)
		if err != nil {
			return p, fmt.Errorf("pdu: AM segment missing SO")
		}
		p.SO = uint16(so)
	}
	payload, err := r.Rest()
	if err != nil || len(payload) == 0 {
		return p, fmt.Errorf("pdu: AM PDU without payload")
	}
	p.Payload = payload
	return p, nil
}

// RLCStatus is the STATUS PDU of AM (TS 38.322 §6.2.2.5, simplified to
// whole-SDU NACKs): ACK_SN acknowledges everything below it except the
// listed NACK_SNs.
type RLCStatus struct {
	AckSN   uint16
	NackSNs []uint16
}

// Append appends the encoded STATUS PDU to dst and returns the extended
// slice: D/C(1)=0 CPT(3)=0 ACK_SN(12) then, per NACK, E1(1)=1 NACK_SN(12)
// pad(3); terminated by E1=0 and padding. On error dst is returned as it was.
func (s RLCStatus) Append(dst []byte) ([]byte, error) {
	if s.AckSN >= 1<<12 {
		return dst, fmt.Errorf("pdu: ACK_SN %d exceeds 12 bits", s.AckSN)
	}
	for _, n := range s.NackSNs {
		if n >= 1<<12 {
			return dst, fmt.Errorf("pdu: NACK_SN %d exceeds 12 bits", n)
		}
	}
	var w bits.Writer
	w.Reset(grow(dst, 2+2*len(s.NackSNs)+1))
	w.WriteBit(0)     // D/C = control
	w.WriteBits(0, 3) // CPT = STATUS
	w.WriteBits(uint64(s.AckSN), 12)
	for _, n := range s.NackSNs {
		w.WriteBit(1)
		w.WriteBits(uint64(n), 12)
		w.WriteBits(0, 3)
	}
	w.WriteBit(0)
	w.Align()
	return w.Bytes(), nil
}

// DecodeRLCStatus parses a STATUS PDU.
func DecodeRLCStatus(buf []byte) (RLCStatus, error) {
	var s RLCStatus
	if len(buf) < 2 {
		return s, fmt.Errorf("pdu: STATUS PDU too short")
	}
	r := bits.NewReader(buf)
	dc, _ := r.ReadBit()
	if dc != 0 {
		return s, fmt.Errorf("pdu: not a control PDU")
	}
	cpt, _ := r.ReadBits(3)
	if cpt != 0 {
		return s, fmt.Errorf("pdu: unsupported control PDU type %d", cpt)
	}
	ack, _ := r.ReadBits(12)
	s.AckSN = uint16(ack)
	for {
		e1, err := r.ReadBit()
		if err != nil || e1 == 0 {
			return s, nil
		}
		n, err := r.ReadBits(12)
		if err != nil {
			return s, fmt.Errorf("pdu: truncated NACK")
		}
		if _, err := r.ReadBits(3); err != nil {
			return s, fmt.Errorf("pdu: truncated NACK padding")
		}
		s.NackSNs = append(s.NackSNs, uint16(n))
	}
}

// IsStatusPDU peeks at the D/C bit.
func IsStatusPDU(buf []byte) bool {
	return len(buf) > 0 && buf[0]&0x80 == 0
}

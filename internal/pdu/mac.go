package pdu

import (
	"fmt"
	"math"

	"urllcsim/internal/bits"
)

// LCID values (TS 38.321 Table 6.2.1-1/-2 subset).
const (
	LCIDCCCH     byte = 0
	LCIDMinDRB   byte = 1
	LCIDMaxDRB   byte = 32
	LCIDShortBSR byte = 61
	LCIDPadding  byte = 63
)

// MACSubPDU is one R/F/LCID/L subheader plus payload (TS 38.321 §6.1.2).
// Fixed-size control elements (Short BSR) and padding omit the L field.
type MACSubPDU struct {
	LCID    byte
	Payload []byte
}

// hasLength reports whether the subheader carries an L field.
func (s MACSubPDU) hasLength() bool {
	return s.LCID != LCIDPadding && s.LCID != LCIDShortBSR
}

// EncodedSize returns the on-air size of the subPDU in bytes.
func (s MACSubPDU) EncodedSize() int {
	if !s.hasLength() {
		return 1 + len(s.Payload)
	}
	if len(s.Payload) < 256 {
		return 2 + len(s.Payload)
	}
	return 3 + len(s.Payload)
}

// AppendMACPDU appends a MAC PDU of subPDUs to dst, padding with an explicit
// padding subPDU up to tbBytes when tbBytes > 0, and returns the extended
// slice. On error dst is returned as it was.
func AppendMACPDU(dst []byte, subs []MACSubPDU, tbBytes int) ([]byte, error) {
	used := 0
	for _, s := range subs {
		if s.LCID == LCIDPadding {
			return dst, fmt.Errorf("pdu: explicit padding subPDU not allowed in input")
		}
		if s.LCID > LCIDMaxDRB && s.LCID != LCIDShortBSR && s.LCID != LCIDCCCH {
			return dst, fmt.Errorf("pdu: unsupported LCID %d", s.LCID)
		}
		if s.LCID == LCIDShortBSR && len(s.Payload) != 1 {
			return dst, fmt.Errorf("pdu: short BSR payload must be 1 byte")
		}
		if s.hasLength() && len(s.Payload) > math.MaxUint16 {
			return dst, fmt.Errorf("pdu: subPDU payload %dB exceeds 16-bit L", len(s.Payload))
		}
		used += s.EncodedSize()
	}
	if tbBytes > 0 && used > tbBytes {
		return dst, fmt.Errorf("pdu: subPDUs need %dB, transport block holds %d", used, tbBytes)
	}
	var w bits.Writer
	w.Reset(grow(dst, max(tbBytes, used)))
	for _, s := range subs {
		w.WriteBit(0) // R
		if s.hasLength() {
			long := len(s.Payload) >= 256
			w.WriteBool(long) // F
			w.WriteBits(uint64(s.LCID), 6)
			if long {
				w.WriteBits(uint64(len(s.Payload)), 16)
			} else {
				w.WriteBits(uint64(len(s.Payload)), 8)
			}
		} else {
			w.WriteBit(0) // F reserved for fixed-size CEs
			w.WriteBits(uint64(s.LCID), 6)
		}
		w.WriteBytes(s.Payload)
	}
	if pad := tbBytes - used; tbBytes > 0 && pad > 0 {
		w.WriteBits(0, 2)
		w.WriteBits(uint64(LCIDPadding), 6)
		w.WriteZeroBytes(pad - 1)
	}
	return w.Bytes(), nil
}

// DecodeMACPDU parses a MAC PDU into subPDUs, dropping padding, appends them
// to dst and returns the extended slice. The payloads alias buf.
func DecodeMACPDU(dst []MACSubPDU, buf []byte) ([]MACSubPDU, error) {
	r := bits.NewReader(buf)
	for r.Remaining() >= 8 {
		r.ReadBit() // R
		f, _ := r.ReadBool()
		lcid64, _ := r.ReadBits(6)
		lcid := byte(lcid64)
		switch lcid {
		case LCIDPadding:
			// Padding consumes the rest of the PDU.
			return dst, nil
		case LCIDShortBSR:
			p, err := r.ReadBytes(1)
			if err != nil {
				return dst, fmt.Errorf("pdu: truncated short BSR")
			}
			dst = append(dst, MACSubPDU{LCID: lcid, Payload: p})
		default:
			var n uint64
			var err error
			if f {
				n, err = r.ReadBits(16)
			} else {
				n, err = r.ReadBits(8)
			}
			if err != nil {
				return dst, fmt.Errorf("pdu: truncated L field")
			}
			p, err := r.ReadBytes(int(n))
			if err != nil {
				return dst, fmt.Errorf("pdu: subPDU payload truncated (want %dB)", n)
			}
			dst = append(dst, MACSubPDU{LCID: lcid, Payload: p})
		}
	}
	return dst, nil
}

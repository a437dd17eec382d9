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

// EncodeMACPDU renders a MAC PDU of subPDUs, padding with an explicit
// padding subPDU up to tbBytes when tbBytes > 0.
func EncodeMACPDU(subs []MACSubPDU, tbBytes int) ([]byte, error) {
	w := bits.NewWriterSize(max(tbBytes, 0))
	used := 0
	for _, s := range subs {
		if s.LCID == LCIDPadding {
			return nil, fmt.Errorf("pdu: explicit padding subPDU not allowed in input")
		}
		if s.LCID > LCIDMaxDRB && s.LCID != LCIDShortBSR && s.LCID != LCIDCCCH {
			return nil, fmt.Errorf("pdu: unsupported LCID %d", s.LCID)
		}
		if s.LCID == LCIDShortBSR && len(s.Payload) != 1 {
			return nil, fmt.Errorf("pdu: short BSR payload must be 1 byte")
		}
		w.WriteBit(0) // R
		if s.hasLength() {
			if len(s.Payload) > math.MaxUint16 {
				return nil, fmt.Errorf("pdu: subPDU payload %dB exceeds 16-bit L", len(s.Payload))
			}
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
		used += s.EncodedSize()
	}
	if tbBytes > 0 {
		if used > tbBytes {
			return nil, fmt.Errorf("pdu: subPDUs need %dB, transport block holds %d", used, tbBytes)
		}
		if pad := tbBytes - used; pad > 0 {
			w.WriteBits(0, 2)
			w.WriteBits(uint64(LCIDPadding), 6)
			w.WriteZeroBytes(pad - 1)
		}
	}
	return w.Bytes(), nil
}

// DecodeMACPDU parses a MAC PDU into subPDUs, dropping padding.
func DecodeMACPDU(buf []byte) ([]MACSubPDU, error) {
	var out []MACSubPDU
	r := bits.NewReader(buf)
	for r.Remaining() >= 8 {
		r.ReadBit() // R
		f, _ := r.ReadBool()
		lcid64, _ := r.ReadBits(6)
		lcid := byte(lcid64)
		switch lcid {
		case LCIDPadding:
			// Padding consumes the rest of the PDU.
			return out, nil
		case LCIDShortBSR:
			p, err := r.ReadBytes(1)
			if err != nil {
				return nil, fmt.Errorf("pdu: truncated short BSR")
			}
			out = append(out, MACSubPDU{LCID: lcid, Payload: p})
		default:
			var n uint64
			var err error
			if f {
				n, err = r.ReadBits(16)
			} else {
				n, err = r.ReadBits(8)
			}
			if err != nil {
				return nil, fmt.Errorf("pdu: truncated L field")
			}
			p, err := r.ReadBytes(int(n))
			if err != nil {
				return nil, fmt.Errorf("pdu: subPDU payload truncated (want %dB)", n)
			}
			out = append(out, MACSubPDU{LCID: lcid, Payload: p})
		}
	}
	return out, nil
}

// BSR levels: TS 38.321 uses a 5-bit logarithmic buffer-size table. We
// generate it with the standard's geometric structure: BS(0)=0,
// BS(1)=10 B, BS(30)=150 000 B, BS(31)=∞ ("more than the maximum").
var bsrTable = func() [32]int {
	var t [32]int
	ratio := math.Pow(15000, 1.0/29)
	v := 10.0
	for i := 1; i <= 30; i++ {
		t[i] = int(math.Ceil(v))
		v *= ratio
	}
	t[31] = math.MaxInt32
	return t
}()

// EncodeShortBSR packs a logical-channel-group ID (3 bits) and a buffered
// byte count into the 1-octet Short BSR control element.
func EncodeShortBSR(lcg byte, bufferedBytes int) (byte, error) {
	if lcg > 7 {
		return 0, fmt.Errorf("pdu: LCG %d exceeds 3 bits", lcg)
	}
	idx := 0
	for i := 0; i < 31; i++ {
		if bufferedBytes > bsrTable[i] {
			idx = i + 1
		}
	}
	return lcg<<5 | byte(idx), nil
}

// DecodeShortBSR returns the LCG and the *upper bound* of the reported
// buffer level (what the scheduler sizes the grant from).
func DecodeShortBSR(b byte) (lcg byte, upperBytes int) {
	lcg = b >> 5
	idx := int(b & 0x1F)
	return lcg, bsrTable[idx]
}

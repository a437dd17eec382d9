// Package crc implements the cyclic redundancy checks of TS 38.212 §5.1:
// CRC24A/B/C (transport block and code block CRCs), CRC16, and the short
// CRC11/CRC6 used on small blocks and polar-coded control channels.
//
// The generator polynomials are written exactly as in the standard, with
// g(D) listed MSB-first excluding the leading term. Registers are
// zero-initialised and the remainder is appended MSB-first, matching the
// standard's systematic form: the concatenation a·D^L + p is divisible by
// g(D).
package crc

import "urllcsim/internal/bits"

// Kind selects one of the TS 38.212 CRC polynomials.
type Kind int

const (
	CRC24A Kind = iota // gCRC24A(D) — transport block CRC
	CRC24B             // gCRC24B(D) — code block CRC
	CRC24C             // gCRC24C(D) — polar control CRC
	CRC16              // gCRC16(D)
	CRC11              // gCRC11(D)
	CRC6               // gCRC6(D)
)

// poly returns the generator polynomial (without the leading x^len term)
// and its length in bits.
func (k Kind) poly() (uint32, int) {
	switch k {
	case CRC24A:
		// D^24+D^23+D^18+D^17+D^14+D^11+D^10+D^7+D^6+D^5+D^4+D^3+D+1
		return 0x864CFB, 24
	case CRC24B:
		// D^24+D^23+D^6+D^5+D+1
		return 0x800063, 24
	case CRC24C:
		// D^24+D^23+D^21+D^20+D^17+D^15+D^13+D^12+D^8+D^4+D^2+D+1
		return 0xB2B117, 24
	case CRC16:
		// D^16+D^12+D^5+1 (CCITT)
		return 0x1021, 16
	case CRC11:
		// D^11+D^10+D^9+D^5+1
		return 0x621, 11
	case CRC6:
		// D^6+D^5+1
		return 0x21, 6
	default:
		panic("crc: unknown kind")
	}
}

// Len returns the CRC length in bits.
func (k Kind) Len() int {
	_, n := k.poly()
	return n
}

// Compute returns the CRC of data (processed MSB-first) as the low bits of
// the returned word.
func Compute(k Kind, data []byte) uint32 {
	poly, n := k.poly()
	var reg uint32
	top := uint32(1) << uint(n-1)
	mask := (uint32(1) << uint(n)) - 1
	if n == 32 {
		mask = ^uint32(0)
	}
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			in := uint32(b>>uint(bit)) & 1
			fb := (reg>>uint(n-1))&1 ^ in
			reg = (reg << 1) & mask
			if fb != 0 {
				reg ^= poly & mask
			}
		}
	}
	_ = top
	return reg & mask
}

// Attach returns data with its k-CRC appended (byte-aligned kinds only:
// CRC24*/CRC16). The result passes Check.
func Attach(k Kind, data []byte) []byte {
	n := k.Len()
	if n%8 != 0 {
		panic("crc: Attach requires a byte-aligned CRC kind")
	}
	c := Compute(k, data)
	w := bits.NewWriter()
	w.WriteBytes(data)
	w.WriteBits(uint64(c), n)
	return w.Bytes()
}

// Check verifies a block produced by Attach: the trailing k-CRC must match
// the CRC of the preceding bytes. It returns the payload and validity.
func Check(k Kind, block []byte) (payload []byte, ok bool) {
	n := k.Len() / 8
	if k.Len()%8 != 0 || len(block) < n {
		return nil, false
	}
	payload = block[:len(block)-n]
	want := Compute(k, payload)
	var got uint32
	for _, b := range block[len(block)-n:] {
		got = got<<8 | uint32(b)
	}
	return payload, got == want
}

package pdu

import (
	"fmt"

	"urllcsim/internal/bits"
)

// PDCPSNBits selects the sequence-number length of a PDCP entity.
type PDCPSNBits int

const (
	PDCPSN12 PDCPSNBits = 12 // 2-octet header
	PDCPSN18 PDCPSNBits = 18 // 3-octet header
)

// HeaderBytes returns the header size for the SN length.
func (s PDCPSNBits) HeaderBytes() int {
	switch s {
	case PDCPSN12:
		return 2
	case PDCPSN18:
		return 3
	default:
		return 0
	}
}

// Valid reports whether s is a defined SN length.
func (s PDCPSNBits) Valid() bool { return s == PDCPSN12 || s == PDCPSN18 }

// PDCPDataPDU is a PDCP Data PDU for DRBs (TS 38.323 §6.2.2): D/C bit,
// reserved bits, SN, ciphered payload, and — when integrity protection is
// configured — a 4-octet MAC-I trailer.
type PDCPDataPDU struct {
	SN      uint32
	SNBits  PDCPSNBits
	Payload []byte // ciphered SDAP PDU
	MACI    []byte // nil, or exactly 4 bytes
}

// Append appends the encoded PDU to dst and returns the extended slice. On
// error dst is returned as it was.
func (p PDCPDataPDU) Append(dst []byte) ([]byte, error) {
	if !p.SNBits.Valid() {
		return dst, fmt.Errorf("pdu: invalid PDCP SN length %d", p.SNBits)
	}
	if p.SN >= 1<<uint(p.SNBits) {
		return dst, fmt.Errorf("pdu: PDCP SN %d exceeds %d bits", p.SN, p.SNBits)
	}
	if p.MACI != nil && len(p.MACI) != 4 {
		return dst, fmt.Errorf("pdu: MAC-I must be 4 bytes, got %d", len(p.MACI))
	}
	var w bits.Writer
	w.Reset(grow(dst, p.SNBits.HeaderBytes()+len(p.Payload)+len(p.MACI)))
	w.WriteBit(1) // D/C = data
	if p.SNBits == PDCPSN12 {
		w.WriteBits(0, 3) // R
		w.WriteBits(uint64(p.SN), 12)
	} else {
		w.WriteBits(0, 5) // R
		w.WriteBits(uint64(p.SN), 18)
	}
	w.WriteBytes(p.Payload)
	if p.MACI != nil {
		w.WriteBytes(p.MACI)
	}
	return w.Bytes(), nil
}

// DecodePDCP parses a PDCP Data PDU. hasMACI tells the parser whether the
// entity runs integrity protection (known from RRC configuration, not the
// wire).
func DecodePDCP(buf []byte, snBits PDCPSNBits, hasMACI bool) (PDCPDataPDU, error) {
	var p PDCPDataPDU
	if !snBits.Valid() {
		return p, fmt.Errorf("pdu: invalid PDCP SN length %d", snBits)
	}
	hdr := snBits.HeaderBytes()
	minLen := hdr
	if hasMACI {
		minLen += 4
	}
	if len(buf) < minLen {
		return p, fmt.Errorf("pdu: PDCP PDU %dB shorter than %dB minimum", len(buf), minLen)
	}
	r := bits.NewReader(buf)
	dc, _ := r.ReadBit()
	if dc != 1 {
		return p, fmt.Errorf("pdu: PDCP control PDUs not supported here")
	}
	p.SNBits = snBits
	if snBits == PDCPSN12 {
		r.ReadBits(3)
		sn, _ := r.ReadBits(12)
		p.SN = uint32(sn)
	} else {
		r.ReadBits(5)
		sn, _ := r.ReadBits(18)
		p.SN = uint32(sn)
	}
	rest, err := r.Rest()
	if err != nil {
		return p, err
	}
	if hasMACI {
		p.Payload = rest[:len(rest)-4]
		p.MACI = rest[len(rest)-4:]
	} else {
		p.Payload = rest
	}
	return p, nil
}

// Package pdu implements the wire formats the simulated stack exchanges:
// SDAP and PDCP headers, RLC UM data PDUs with segmentation, MAC subPDUs
// with control elements (BSR, padding), and the GTP-U tunnel header used on
// the gNB↔UPF leg. Formats follow TS 37.324, TS 38.323, TS 38.322,
// TS 38.321 and TS 29.281; simplifications are noted per type.
package pdu

import (
	"fmt"

	"urllcsim/internal/bits"
)

// SDAPHeader is the one-octet SDAP header (TS 37.324 §6.2). The DL header
// carries RDI/RQI + QFI; the UL header carries D/C + R + QFI. Both fit the
// same struct here.
type SDAPHeader struct {
	// DataPDU distinguishes data (true) from control (false); UL only.
	DataPDU bool
	// RDI is the reflective-QoS-flow-to-DRB indication (DL only).
	RDI bool
	// RQI is the reflective-QoS indication (DL only).
	RQI bool
	// QFI is the 6-bit QoS flow identifier.
	QFI byte

	// Downlink selects which layout Encode produces.
	Downlink bool
}

// Encode renders the header octet followed by the payload.
func (h SDAPHeader) Encode(payload []byte) []byte {
	w := bits.NewWriterSize(1 + len(payload))
	if h.Downlink {
		w.WriteBool(h.RDI)
		w.WriteBool(h.RQI)
	} else {
		w.WriteBool(h.DataPDU)
		w.WriteBit(0) // R
	}
	w.WriteBits(uint64(h.QFI&0x3F), 6)
	w.WriteBytes(payload)
	return w.Bytes()
}

// DecodeSDAP parses an SDAP PDU in the given direction.
func DecodeSDAP(buf []byte, downlink bool) (SDAPHeader, []byte, error) {
	var h SDAPHeader
	if len(buf) < 1 {
		return h, nil, fmt.Errorf("pdu: SDAP PDU too short")
	}
	r := bits.NewReader(buf)
	h.Downlink = downlink
	if downlink {
		h.RDI, _ = r.ReadBool()
		h.RQI, _ = r.ReadBool()
	} else {
		h.DataPDU, _ = r.ReadBool()
		r.ReadBit()
	}
	qfi, _ := r.ReadBits(6)
	h.QFI = byte(qfi)
	payload, err := r.Rest()
	return h, payload, err
}

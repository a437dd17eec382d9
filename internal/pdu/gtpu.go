package pdu

import (
	"encoding/binary"
	"fmt"
)

// GTPUHeader is the mandatory 8-octet GTP-U header (TS 29.281 §5.1): the
// gNB encapsulates every UL user-plane packet toward the UPF in one of
// these, and the UPF strips it (§3 of the paper: "encapsulates it into a
// GTP-U packet, forwarding it to the UPF").
type GTPUHeader struct {
	TEID uint32
}

const (
	gtpuVersion  = 1
	gtpuPTGTP    = 1
	gtpuMsgTPDU  = 0xFF
	gtpuHdrBytes = 8
)

// Append appends header + payload to dst and returns the extended slice. On
// error dst is returned as it was.
func (h GTPUHeader) Append(dst, payload []byte) ([]byte, error) {
	if len(payload) > 0xFFFF {
		return dst, fmt.Errorf("pdu: GTP-U payload %dB exceeds 16-bit length", len(payload))
	}
	dst = grow(dst, gtpuHdrBytes+len(payload))
	dst = append(dst, gtpuVersion<<5|gtpuPTGTP<<4, gtpuMsgTPDU) // version 1, PT=GTP, no E/S/PN
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, h.TEID)
	return append(dst, payload...), nil
}

// DecodeGTPU parses a G-PDU.
func DecodeGTPU(buf []byte) (GTPUHeader, []byte, error) {
	var h GTPUHeader
	if len(buf) < gtpuHdrBytes {
		return h, nil, fmt.Errorf("pdu: GTP-U packet %dB too short", len(buf))
	}
	if v := buf[0] >> 5; v != gtpuVersion {
		return h, nil, fmt.Errorf("pdu: GTP version %d", v)
	}
	if buf[0]&0x10 == 0 {
		return h, nil, fmt.Errorf("pdu: GTP' (PT=0) not supported")
	}
	if flags := buf[0] & 0x0F; flags != 0 {
		// Reserved bit and E/S/PN (which extend the header to 12 bytes):
		// this simulator never emits them, so reject rather than misparse
		// (both cases found by fuzzing).
		return h, nil, fmt.Errorf("pdu: GTP-U flags %#x not supported", flags)
	}
	if buf[1] != gtpuMsgTPDU {
		return h, nil, fmt.Errorf("pdu: GTP-U message type %#x not a T-PDU", buf[1])
	}
	n := int(binary.BigEndian.Uint16(buf[2:]))
	if len(buf) != gtpuHdrBytes+n {
		return h, nil, fmt.Errorf("pdu: GTP-U length field %d vs %d actual", n, len(buf)-gtpuHdrBytes)
	}
	h.TEID = binary.BigEndian.Uint32(buf[4:])
	return h, buf[gtpuHdrBytes:], nil
}

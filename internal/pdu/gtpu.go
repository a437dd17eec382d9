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

// Echo is the simulator's ping payload (an ICMP-echo stand-in): ID,
// sequence number and the sender's virtual-time timestamp, padded to Size.
type Echo struct {
	ID     uint16
	Seq    uint16
	SentNs int64
	Reply  bool
	Size   int // total encoded size; 0 → minimum (13 bytes)
}

const echoMinBytes = 13

// Append appends the encoded echo message to dst and returns the extended
// slice. On error dst is returned as it was.
func (e Echo) Append(dst []byte) ([]byte, error) {
	size := e.Size
	if size == 0 {
		size = echoMinBytes
	}
	if size < echoMinBytes {
		return dst, fmt.Errorf("pdu: echo size %d below %d minimum", size, echoMinBytes)
	}
	dst = grow(dst, size)
	var reply byte
	if e.Reply {
		reply = 1
	}
	dst = append(dst, reply)
	dst = binary.BigEndian.AppendUint16(dst, e.ID)
	dst = binary.BigEndian.AppendUint16(dst, e.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.SentNs))
	return append(dst, make([]byte, size-echoMinBytes)...), nil
}

// DecodeEcho parses an echo message.
func DecodeEcho(buf []byte) (Echo, error) {
	var e Echo
	if len(buf) < echoMinBytes {
		return e, fmt.Errorf("pdu: echo %dB too short", len(buf))
	}
	e.Reply = buf[0] == 1
	e.ID = binary.BigEndian.Uint16(buf[1:])
	e.Seq = binary.BigEndian.Uint16(buf[3:])
	e.SentNs = int64(binary.BigEndian.Uint64(buf[5:]))
	e.Size = len(buf)
	return e, nil
}

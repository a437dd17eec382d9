// Package corenet models the mobile-core leg of the packet journey (§3):
// the gNB encapsulates UL user-plane traffic in GTP-U toward the User Plane
// Function, which decapsulates and forwards it over IP. DL traffic is not
// tunnelled: the node charges the configured core latency for the UPF→gNB
// hop and hands the packet straight to the gNB. The paper scopes its
// analysis to the RAN (§9, "URLLC in the 5G Core"), so the core contributes
// only that small forwarding latency per direction.
package corenet

import (
	"fmt"

	"urllcsim/internal/pdu"
)

// UPF is a single-session User Plane Function.
type UPF struct {
	// TEID identifies the session's tunnel.
	TEID uint32
}

// NewUPF returns a UPF for one tunnel.
func NewUPF(teid uint32) *UPF {
	return &UPF{TEID: teid}
}

// DecapUL unwraps a UL GTP-U packet from the gNB, validating the TEID. The
// payload aliases gtpu.
func (u *UPF) DecapUL(gtpu []byte) ([]byte, error) {
	h, payload, err := pdu.DecodeGTPU(gtpu)
	if err != nil {
		return nil, err
	}
	if h.TEID != u.TEID {
		return nil, fmt.Errorf("corenet: TEID %#x does not match session %#x", h.TEID, u.TEID)
	}
	return payload, nil
}

// GNBTunnel is the gNB-side tunnel endpoint (the CU-UP role).
type GNBTunnel struct {
	TEID uint32

	buf []byte // EncapUL's output
}

// EncapUL wraps a UL packet toward the UPF. The packet is valid until the
// next EncapUL.
func (g *GNBTunnel) EncapUL(ip []byte) ([]byte, error) {
	out, err := pdu.GTPUHeader{TEID: g.TEID}.Append(g.buf[:0], ip)
	g.buf = out
	return out, err
}

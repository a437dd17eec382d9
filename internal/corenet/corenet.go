// Package corenet models the mobile-core leg of the packet journey (§3):
// the gNB encapsulates UL user-plane traffic in GTP-U toward the User Plane
// Function, which decapsulates and forwards it over IP; DL traffic enters
// through the UPF and is tunnelled to the gNB. The paper scopes its analysis
// to the RAN (§9, "URLLC in the 5G Core"), so the core contributes a small
// configurable forwarding latency here.
package corenet

import (
	"fmt"

	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

// UPF is a single-session User Plane Function.
type UPF struct {
	// TEID identifies the session's tunnel.
	TEID uint32
	// ForwardLatency is the N3 link + forwarding cost per direction.
	ForwardLatency sim.Duration

	rxUL int64
	rxDL int64

	buf []byte // EncapDL's output
}

// NewUPF returns a UPF for one tunnel.
func NewUPF(teid uint32, forward sim.Duration) *UPF {
	return &UPF{TEID: teid, ForwardLatency: forward}
}

// EncapDL wraps a DL IP packet for the gNB. Used on the N6→N3 path. The
// packet is valid until the next EncapDL.
func (u *UPF) EncapDL(ip []byte) ([]byte, error) {
	u.rxDL++
	out, err := pdu.GTPUHeader{TEID: u.TEID}.Append(u.buf[:0], ip)
	u.buf = out
	return out, err
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
	u.rxUL++
	return payload, nil
}

// Counters returns (UL, DL) packet counts.
func (u *UPF) Counters() (int64, int64) { return u.rxUL, u.rxDL }

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

// DecapDL unwraps a DL packet from the UPF. The payload aliases gtpu.
func (g *GNBTunnel) DecapDL(gtpu []byte) ([]byte, error) {
	h, payload, err := pdu.DecodeGTPU(gtpu)
	if err != nil {
		return nil, err
	}
	if h.TEID != g.TEID {
		return nil, fmt.Errorf("corenet: TEID %#x does not match tunnel %#x", h.TEID, g.TEID)
	}
	return payload, nil
}

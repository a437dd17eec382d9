package stack

import (
	"bytes"
	"fmt"
	"sort"

	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

// RLCAM is a bidirectional RLC Acknowledged Mode entity (TS 38.322 §5.2.3,
// simplified to whole-SDU segmentation units): the TX side keeps every PDU
// until acknowledged and retransmits NACKed SNs; the RX side delivers SDUs
// in order and answers polls with STATUS PDUs. AM is what a 5G bearer uses
// when reliability beats latency — each retransmission costs at least one
// scheduling round trip, the 0.5 ms staircase of the audio example.
type RLCAM struct {
	// MaxRetx bounds retransmissions per SDU before the entity declares
	// failure (maxRetxThreshold; triggers RRC re-establishment in a real
	// stack).
	MaxRetx int

	// PollEvery sets the poll bit on every n-th transmitted PDU (a
	// simplified pollPDU trigger).
	PollEvery int

	txNext  uint16
	txCount int
	retxBuf map[uint16]*amTxEntry

	rxNext    uint16 // lowest not-yet-delivered SN
	rxPending map[uint16][]byte
	rxSeen    map[uint16]bool

	failed []uint16 // SNs that exhausted MaxRetx
}

type amTxEntry struct {
	sdu      []byte
	retx     int
	sentAt   sim.Time
	inFlight bool // a (re)transmission is pending; suppress duplicate retx
}

// NewRLCAM returns an AM entity with the given retransmission budget.
func NewRLCAM(maxRetx, pollEvery int) *RLCAM {
	if pollEvery <= 0 {
		pollEvery = 1
	}
	return &RLCAM{
		MaxRetx:   maxRetx,
		PollEvery: pollEvery,
		retxBuf:   map[uint16]*amTxEntry{},
		rxPending: map[uint16][]byte{},
		rxSeen:    map[uint16]bool{},
	}
}

const amSNSpace = 1 << 12

// Send encodes an SDU as an AMD PDU, retaining it for retransmission.
func (a *RLCAM) Send(sdu []byte, now sim.Time) ([]byte, error) {
	if len(sdu) == 0 {
		return nil, fmt.Errorf("stack: empty AM SDU")
	}
	sn := a.txNext
	a.txNext = (a.txNext + 1) % amSNSpace
	a.txCount++
	cp := make([]byte, len(sdu))
	copy(cp, sdu)
	a.retxBuf[sn] = &amTxEntry{sdu: cp, sentAt: now, inFlight: true}
	return pdu.RLCAMPDU{
		Poll:    a.txCount%a.PollEvery == 0,
		SI:      pdu.SIFull,
		SN:      sn,
		Payload: cp,
	}.Append(nil)
}

// Unacked returns the number of SDUs awaiting acknowledgement.
func (a *RLCAM) Unacked() int { return len(a.retxBuf) }

// Failed returns the SNs that exhausted their retransmission budget.
func (a *RLCAM) Failed() []uint16 { return a.failed }

// Receive ingests one peer PDU (AMD or STATUS). It returns
// (deliveredSDUs, statusToSend, retransmissions, error):
//   - deliveredSDUs: in-order SDUs now deliverable upward;
//   - statusToSend: a STATUS PDU to return (non-nil when the peer polled);
//   - retransmissions: encoded AMD PDUs this side must re-send (when the
//     incoming PDU was a STATUS with NACKs).
func (a *RLCAM) Receive(buf []byte, now sim.Time) (delivered [][]byte, status []byte, retx [][]byte, err error) {
	if pdu.IsStatusPDU(buf) {
		st, err := pdu.DecodeRLCStatus(buf)
		if err != nil {
			return nil, nil, nil, err
		}
		retx, err = a.handleStatus(st, now)
		return nil, nil, retx, err
	}
	p, err := pdu.DecodeRLCAM(buf)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.SI != pdu.SIFull {
		return nil, nil, nil, fmt.Errorf("stack: segmented AM PDUs not supported by this entity")
	}
	if !a.rxSeen[p.SN] {
		a.rxSeen[p.SN] = true
		a.rxPending[p.SN] = bytes.Clone(p.Payload) // buf is the caller's
	}
	// In-order delivery from rxNext.
	for {
		sdu, ok := a.rxPending[a.rxNext]
		if !ok {
			break
		}
		delivered = append(delivered, sdu)
		delete(a.rxPending, a.rxNext)
		a.rxNext = (a.rxNext + 1) % amSNSpace
	}
	if p.Poll {
		st := a.buildStatus()
		enc, err := st.Append(nil)
		if err != nil {
			return delivered, nil, nil, err
		}
		status = enc
	}
	return delivered, status, nil, nil
}

// buildStatus acknowledges everything up to the highest contiguous SN and
// NACKs the holes below the highest received SN.
func (a *RLCAM) buildStatus() pdu.RLCStatus {
	// Highest seen SN (window-naive: fine for the windows used in tests
	// and the simulator's in-order channels).
	high := a.rxNext
	for sn := range a.rxPending {
		if snGE(sn, high) {
			high = (sn + 1) % amSNSpace
		}
	}
	st := pdu.RLCStatus{AckSN: high}
	for sn := a.rxNext; sn != high; sn = (sn + 1) % amSNSpace {
		if _, ok := a.rxPending[sn]; !ok {
			st.NackSNs = append(st.NackSNs, sn)
		}
	}
	sort.Slice(st.NackSNs, func(i, j int) bool { return st.NackSNs[i] < st.NackSNs[j] })
	return st
}

// snGE compares SNs in the half-window sense.
func snGE(a, b uint16) bool {
	return (a-b)%amSNSpace < amSNSpace/2
}

// handleStatus releases acknowledged PDUs and produces retransmissions.
func (a *RLCAM) handleStatus(st pdu.RLCStatus, now sim.Time) ([][]byte, error) {
	nacked := map[uint16]bool{}
	for _, sn := range st.NackSNs {
		nacked[sn] = true
	}
	var retx [][]byte
	for sn, e := range a.retxBuf {
		if nacked[sn] {
			// A NACK issued at or before our last (re)transmission cannot
			// know about it; only a strictly later NACK means the copy was
			// lost. This plays the role of t-StatusProhibit: back-to-back
			// statuses do not burn the retransmission budget.
			if e.inFlight && now <= e.sentAt {
				continue
			}
			e.retx++
			if a.MaxRetx > 0 && e.retx > a.MaxRetx {
				a.failed = append(a.failed, sn)
				delete(a.retxBuf, sn)
				continue
			}
			enc, err := pdu.RLCAMPDU{Poll: true, SI: pdu.SIFull, SN: sn, Payload: e.sdu}.Append(nil)
			if err != nil {
				return nil, err
			}
			e.sentAt = now
			e.inFlight = true
			retx = append(retx, enc)
			continue
		}
		// Acked: strictly below ACK_SN and not NACKed.
		if !snGE(sn, st.AckSN) {
			delete(a.retxBuf, sn)
		}
	}
	return retx, nil
}

// Package stack implements the layer machines of the 5G user plane: SDAP
// (QoS flow mapping), PDCP (sequence numbering, NEA2 ciphering, NIA2
// integrity), RLC UM (segmentation, reassembly, the RLC queue whose waiting
// time dominates the paper's Table 2), and MAC multiplexing. Bytes really
// flow: every PDU is encoded with the wire formats of internal/pdu and
// decoded on the far side; integrity failures and malformed PDUs surface as
// errors exactly where a real stack would drop them.
//
// Timing is deliberately not in this package — the DES (internal/node)
// charges processing time around these calls using internal/proc profiles.
//
// Every entity encodes into scratch it owns and keeps across calls, so a
// steady-state packet allocates nothing. The bytes and slices a method
// returns therefore alias that scratch: they are valid until the entity's
// next call, and a caller that keeps them longer copies them. No method
// retains its arguments past the call.
package stack

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"urllcsim/internal/crypto5g"
	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

// SDAP maps application SDUs onto a QoS flow.
type SDAP struct {
	QFI      byte
	Downlink bool

	buf []byte // Encap's output
}

// Encap adds the SDAP header. The result is valid until the next Encap.
func (s *SDAP) Encap(data []byte) []byte {
	s.buf = pdu.SDAPHeader{DataPDU: true, QFI: s.QFI, Downlink: s.Downlink}.Append(s.buf[:0], data)
	return s.buf
}

// Decap strips and validates the SDAP header. The result aliases buf.
func (s *SDAP) Decap(buf []byte) ([]byte, error) {
	h, payload, err := pdu.DecodeSDAP(buf, s.Downlink)
	if err != nil {
		return nil, err
	}
	if h.QFI != s.QFI {
		return nil, fmt.Errorf("stack: SDAP QFI %d, expected %d", h.QFI, s.QFI)
	}
	return payload, nil
}

// PDCP is one direction of a PDCP entity: COUNT maintenance, ciphering and
// integrity. A DRB uses one TX entity on the sender and one RX entity on
// the receiver, sharing keys and bearer identity.
//
// The first Protect or Unprotect expands CipherKey and IntegKey into keyed
// contexts that every later call reuses, so the keys are fixed from then
// on: changing the fields afterwards has no effect. The contexts hold
// scratch space, as does the entity itself (Protect's PDU, Unprotect's
// plaintext), so an entity must not be used by two goroutines at once.
type PDCP struct {
	SNBits    pdu.PDCPSNBits
	Bearer    byte
	Direction crypto5g.Direction
	CipherKey []byte // 16 bytes; nil disables ciphering
	IntegKey  []byte // 16 bytes; nil disables integrity

	cipher, integ *crypto5g.Key // expanded on first use; nil while disabled
	keyed         bool

	txNext uint32 // next COUNT to assign
	rxNext uint32 // next expected COUNT

	enc   []byte // Protect's output
	plain []byte // Unprotect's deciphered output
}

// keys expands CipherKey and IntegKey on the first call.
func (p *PDCP) keys() error {
	if p.keyed {
		return nil
	}
	var err error
	if p.CipherKey != nil {
		if p.cipher, err = crypto5g.NewKey(p.CipherKey); err != nil {
			return fmt.Errorf("stack: PDCP cipher key: %w", err)
		}
	}
	if p.IntegKey != nil {
		if p.integ, err = crypto5g.NewKey(p.IntegKey); err != nil {
			return fmt.Errorf("stack: PDCP integrity key: %w", err)
		}
	}
	p.keyed = true
	return nil
}

// Protect turns an SDAP PDU into a PDCP Data PDU: assign SN, compute MAC-I
// over the plaintext, encode, and cipher the payload in the encoded buffer.
// The result is valid until the entity's next Protect.
func (p *PDCP) Protect(data []byte) ([]byte, error) {
	if err := p.keys(); err != nil {
		return nil, err
	}
	count := p.txNext
	p.txNext++
	var mac [crypto5g.MACSize]byte
	var maci []byte
	if p.integ != nil {
		mac = p.integ.NIA2(count, p.Bearer, p.Direction, data)
		maci = mac[:]
	}
	out, err := pdu.PDCPDataPDU{
		SN:      count & ((1 << uint(p.SNBits)) - 1),
		SNBits:  p.SNBits,
		Payload: data,
		MACI:    maci,
	}.Append(p.enc[:0])
	if err != nil {
		return nil, err
	}
	p.enc = out
	if p.cipher != nil {
		payload := out[p.SNBits.HeaderBytes() : len(out)-len(maci)]
		p.cipher.NEA2(count, p.Bearer, p.Direction, payload, payload)
	}
	return out, nil
}

// Unprotect inverts Protect: decode, decipher, verify integrity. The COUNT
// is reconstructed from the SN against rxNext (window logic simplified to
// nearest COUNT — sufficient for the in-order UM flows simulated here). The
// result is valid until the entity's next Unprotect.
func (p *PDCP) Unprotect(buf []byte) ([]byte, error) {
	if err := p.keys(); err != nil {
		return nil, err
	}
	d, err := pdu.DecodePDCP(buf, p.SNBits, p.integ != nil)
	if err != nil {
		return nil, err
	}
	count := p.reconstructCount(d.SN)
	data := d.Payload
	if p.cipher != nil {
		p.plain = slices.Grow(p.plain[:0], len(d.Payload))[:len(d.Payload)]
		data = p.plain
		p.cipher.NEA2(count, p.Bearer, p.Direction, data, d.Payload)
	}
	if p.integ != nil {
		mac := p.integ.NIA2(count, p.Bearer, p.Direction, data)
		if subtle.ConstantTimeCompare(mac[:], d.MACI) != 1 {
			return nil, fmt.Errorf("stack: PDCP integrity failure at COUNT %d", count)
		}
	}
	if count >= p.rxNext {
		p.rxNext = count + 1
	}
	return data, nil
}

// reconstructCount maps a received SN onto the full COUNT closest to rxNext.
func (p *PDCP) reconstructCount(sn uint32) uint32 {
	window := uint32(1) << uint(p.SNBits)
	base := p.rxNext &^ (window - 1)
	cand := base | sn
	// Choose among cand-window, cand, cand+window whichever is closest to
	// rxNext.
	best := cand
	bestDist := dist(cand, p.rxNext)
	if cand >= window {
		if d := dist(cand-window, p.rxNext); d < bestDist {
			best, bestDist = cand-window, d
		}
	}
	if d := dist(cand+window, p.rxNext); d < bestDist {
		best = cand + window
	}
	return best
}

func dist(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// RLC is a UM-mode RLC entity: TX side segments SDUs to the MAC's PDU size,
// RX side reassembles. The TX queue is the "RLC-q" of Table 2 — SDUs wait
// here until the scheduler serves them.
type RLC struct {
	sn byte

	queue []RLCQueued
	rx    map[byte][]pdu.RLCUMPDU

	taken []RLCQueued      // DequeueIDs' output
	want  map[int]struct{} // DequeueIDs' ID set
	segs  []pdu.RLCUMPDU   // Segment's PDUs before encoding
	enc   []byte           // Segment's encoded PDUs, back to back
	out   [][]byte         // Segment's output: views into enc
}

// RLCQueued is one SDU waiting in the RLC queue.
type RLCQueued struct {
	ID         int
	Data       []byte
	EnqueuedAt sim.Time
}

// NewRLC returns an empty entity.
func NewRLC() *RLC {
	return &RLC{rx: map[byte][]pdu.RLCUMPDU{}, want: map[int]struct{}{}}
}

// Enqueue admits an SDU to the TX queue.
func (r *RLC) Enqueue(q RLCQueued) { r.queue = append(r.queue, q) }

// QueueLen returns the number of waiting SDUs.
func (r *RLC) QueueLen() int { return len(r.queue) }

// Peek returns the queue contents without consuming. The slice is valid
// until the queue next changes.
func (r *RLC) Peek() []RLCQueued { return r.queue }

// DequeueIDs removes the SDUs with the given IDs (scheduler-selected) and
// returns them in queue order. The queue is filtered in place, and the
// result is valid until the next DequeueIDs.
func (r *RLC) DequeueIDs(ids []int) []RLCQueued {
	clear(r.want)
	for _, id := range ids {
		r.want[id] = struct{}{}
	}
	r.taken = r.taken[:0]
	rest := r.queue[:0]
	for _, q := range r.queue {
		if _, ok := r.want[q.ID]; ok {
			r.taken = append(r.taken, q)
		} else {
			rest = append(rest, q)
		}
	}
	clear(r.queue[len(rest):]) // drop the taken SDUs' bytes from the tail
	r.queue = rest
	return r.taken
}

// Segment encodes an SDU into RLC PDU bytes bounded by maxPDU each,
// assigning the next SN. The PDUs are valid until the next Segment.
func (r *RLC) Segment(sdu []byte, maxPDU int) ([][]byte, error) {
	sn := r.sn
	r.sn = (r.sn + 1) & 0x3F
	segs, err := pdu.SegmentSDU(r.segs[:0], sdu, sn, maxPDU)
	r.segs = segs
	if err != nil {
		return nil, err
	}
	enc, out := r.enc[:0], r.out[:0]
	for _, p := range segs {
		start := len(enc)
		if enc, err = p.Append(enc); err != nil {
			return nil, err
		}
		// A view into an array enc later outgrows still holds its PDU.
		out = append(out, enc[start:len(enc):len(enc)])
	}
	clear(segs) // keep no reference to sdu
	r.enc, r.out = enc, out
	return out, nil
}

// Receive ingests one RLC PDU; when it completes an SDU, the SDU is
// returned (nil otherwise). A complete SDU aliases buf; a reassembled one is
// fresh. Segments kept for reassembly are copied, so buf is free once
// Receive returns.
func (r *RLC) Receive(buf []byte) ([]byte, error) {
	p, err := pdu.DecodeRLCUM(buf)
	if err != nil {
		return nil, err
	}
	if p.SI == pdu.SIFull {
		return p.Payload, nil
	}
	p.Payload = bytes.Clone(p.Payload)
	r.rx[p.SN] = append(r.rx[p.SN], p)
	segs := r.rx[p.SN]
	sdu, err := pdu.ReassembleSDU(segs)
	if err != nil {
		// Incomplete: keep buffering. Only genuine inconsistencies
		// (overlap, double-last) are fatal.
		if errors.Is(err, pdu.ErrIncompleteSDU) {
			return nil, nil
		}
		delete(r.rx, p.SN)
		return nil, err
	}
	delete(r.rx, p.SN)
	return sdu, nil
}

// MAC multiplexes RLC PDUs of one logical channel into transport blocks.
type MAC struct {
	LCID byte

	txSubs []pdu.MACSubPDU // BuildTB's subPDUs before encoding
	tb     []byte          // BuildTB's output
	rxSubs []pdu.MACSubPDU // ParseTB's decoded subPDUs
	out    [][]byte        // ParseTB's output
}

// BuildTB multiplexes payloads into one transport block of exactly tbBytes
// (padded). Payloads that do not fit are rejected. The block is valid until
// the next BuildTB; payloads is not retained.
func (m *MAC) BuildTB(payloads [][]byte, tbBytes int) ([]byte, error) {
	subs := m.txSubs[:0]
	for _, p := range payloads {
		subs = append(subs, pdu.MACSubPDU{LCID: m.LCID, Payload: p})
	}
	tb, err := pdu.AppendMACPDU(m.tb[:0], subs, tbBytes)
	clear(subs)
	m.txSubs = subs
	if err != nil {
		return nil, err
	}
	m.tb = tb
	return tb, nil
}

// ParseTB demultiplexes a transport block, returning the payloads of this
// entity's LCID. They alias tb, and the slice holding them is valid until
// the next ParseTB.
func (m *MAC) ParseTB(tb []byte) ([][]byte, error) {
	subs, err := pdu.DecodeMACPDU(m.rxSubs[:0], tb)
	m.rxSubs = subs
	if err != nil {
		return nil, err
	}
	m.out = m.out[:0]
	for _, s := range subs {
		if s.LCID == m.LCID {
			m.out = append(m.out, s.Payload)
		}
	}
	return m.out, nil
}

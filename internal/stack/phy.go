package stack

import (
	"urllcsim/internal/channel"
	"urllcsim/internal/modulation"
	"urllcsim/internal/sim"
)

// PHY is the physical-layer entity of one link direction. It treats the
// channel coder as a black box: one draw against the analytic block error
// rate of the channel model decides each transport block.
type PHY struct {
	MCS     modulation.MCS
	Channel channel.Model
	rng     *sim.RNG

	free [][]byte // received-block buffers handed back through Release
	memo blerMemo // the analytic BLER of the last block priced
}

// blerMemo is channel.CodedBLER's answer for one (SNR, info bits, scheme).
// Under AWGN the SNR never changes and under Blockage it takes two values,
// so back-to-back blocks of one size nearly always hit. The zero memo is a
// true entry: a 0-bit block has BLER 0 at any SNR and scheme.
type blerMemo struct {
	snrDB  float64
	bits   int
	scheme modulation.Scheme
	bler   float64
}

// NewPHY returns a PHY entity.
func NewPHY(mcs modulation.MCS, ch channel.Model, rng *sim.RNG) *PHY {
	return &PHY{MCS: mcs, Channel: ch, rng: rng}
}

// Transmit carries a transport block over the air at time t. One Bernoulli
// draw at the block's analytic BLER (channel.CodedBLER at the SNR of t)
// decides it: ok is false when the block is lost, and then rx is nil.
// Otherwise rx is the receiver's own buffer, never aliasing tb, and stays
// valid until it is passed to Release.
func (p *PHY) Transmit(tb []byte, t sim.Time) (rx []byte, ok bool) {
	if p.rng.Bernoulli(p.blockErrorRate(p.Channel.SNRdB(t), len(tb)*8)) {
		return nil, false
	}
	// Deliver a copy: the receiver must never alias the sender's buffer.
	if n := len(p.free); n > 0 {
		rx, p.free = p.free[n-1], p.free[:n-1]
	}
	return append(rx[:0], tb...), true
}

// blockErrorRate returns channel.CodedBLER at the PHY's scheme, computing it
// only when the SNR, the block size or the scheme differs from the last
// block's. The Bernoulli draw stays with the caller, once per block, so the
// random stream is the same as without the memo.
func (p *PHY) blockErrorRate(snrDB float64, bits int) float64 {
	if snrDB != p.memo.snrDB || bits != p.memo.bits || p.MCS.Scheme != p.memo.scheme {
		p.memo = blerMemo{snrDB, bits, p.MCS.Scheme, channel.CodedBLER(p.MCS.Scheme, snrDB, bits)}
	}
	return p.memo.bler
}

// Release hands a block Transmit returned back to the PHY for reuse. The
// caller must not touch rx afterwards.
func (p *PHY) Release(rx []byte) {
	if rx != nil {
		p.free = append(p.free, rx)
	}
}

// AirTime returns the on-air duration of a transport block given the
// allocation width, at the PHY's MCS.
func (p *PHY) AirTime(tbBytes, nPRB int, symbolDur sim.Duration) (sim.Duration, error) {
	syms, err := modulation.SymbolsForBits(tbBytes*8, nPRB, p.MCS, 12)
	if err != nil {
		return 0, err
	}
	return sim.Duration(syms) * symbolDur, nil
}

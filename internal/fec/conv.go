// Package fec implements the real coder that V1 (`urllc-experiments -run
// blercurve`) runs to check the analytic BLER waterfall the simulator's PHY
// draws from: code-block segmentation with CRC attachment (following the
// TS 38.212 structure) and a rate-1/2 constraint-length-7 convolutional
// code with hard-decision Viterbi decoding.
//
// Substitution note (cf. DESIGN.md): 5G NR uses LDPC for data channels.
// A production-grade LDPC with base-graph lifting is far outside what the
// paper's latency analysis needs — the paper treats the coder as a black box
// with a processing time and an error rate, and so does the simulator's PHY.
// The convolutional code here is a *real* coder with genuine coding gain, so
// the error rate that black box draws is checked against a real
// segmentation → encode → bit errors → Viterbi → CRC chain.
package fec

import (
	"fmt"
	"math/bits"
)

// The industry-standard K=7, rate-1/2 generator polynomials (octal 133, 171).
const (
	constraintLen = 7
	numStates     = 1 << (constraintLen - 1) // 64
	g0            = 0o133
	g1            = 0o171
)

// Bit is a single hard bit (0 or 1). Soft decoding is out of scope; the
// channel model produces hard bits with a configurable error rate.
type Bit = byte

// BytesToBits expands bytes MSB-first.
func BytesToBits(p []byte) []Bit {
	out := make([]Bit, 0, len(p)*8)
	for _, b := range p {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToBytes packs bits MSB-first; the bit count must be a multiple of 8.
func BitsToBytes(bs []Bit) ([]byte, error) {
	if len(bs)%8 != 0 {
		return nil, fmt.Errorf("fec: %d bits not byte-aligned", len(bs))
	}
	out := make([]byte, len(bs)/8)
	for i, b := range bs {
		if b > 1 {
			return nil, fmt.Errorf("fec: bit value %d at %d", b, i)
		}
		out[i/8] |= (b & 1) << uint(7-i%8)
	}
	return out, nil
}

// ConvEncode encodes info bits with the (133,171) code, zero-flushed: six
// tail bits drive the encoder back to state zero, so the output holds
// 2·(len(info)+6) bits.
func ConvEncode(info []Bit) []Bit {
	out := make([]Bit, 0, 2*(len(info)+constraintLen-1))
	state := 0
	emit := func(b Bit) {
		// Shift the new bit into the register and emit both parity streams.
		reg := state | int(b)<<(constraintLen-1)
		out = append(out, parity(reg&g0), parity(reg&g1))
		state = reg >> 1
	}
	for _, b := range info {
		emit(b & 1)
	}
	for i := 0; i < constraintLen-1; i++ {
		emit(0)
	}
	return out
}

func parity(x int) Bit {
	return Bit(bits.OnesCount(uint(x)) & 1)
}

// ViterbiDecode performs hard-decision maximum-likelihood decoding of a
// zero-flushed (133,171) stream of hard bits (0 or 1). nInfo is the number
// of information bits expected (excluding the six tail bits).
func ViterbiDecode(coded []Bit, nInfo int) ([]Bit, error) {
	nSteps := nInfo + constraintLen - 1
	if len(coded) != 2*nSteps {
		return nil, fmt.Errorf("fec: coded length %d, want %d for %d info bits", len(coded), 2*nSteps, nInfo)
	}
	const inf = int32(1) << 30

	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for i := 1; i < numStates; i++ {
		metric[i] = inf // encoder starts in state 0
	}
	// decisions[t][s] = input bit that led to state s at step t+1 … we store
	// the *predecessor register* decision as one bit per state per step.
	decisions := make([][]byte, nSteps)

	for t := 0; t < nSteps; t++ {
		o0, o1 := coded[2*t], coded[2*t+1]
		for i := range next {
			next[i] = inf
		}
		dec := make([]byte, numStates)
		for s := 0; s < numStates; s++ {
			if metric[s] >= inf {
				continue
			}
			for b := 0; b < 2; b++ {
				reg := s | b<<(constraintLen-1)
				ns := reg >> 1
				var cost int32
				if parity(reg&g0) != o0 {
					cost++
				}
				if parity(reg&g1) != o1 {
					cost++
				}
				if m := metric[s] + cost; m < next[ns] {
					next[ns] = m
					// Record the input bit and the predecessor's low bit;
					// together with ns they reconstruct the predecessor:
					// pred = ((ns << 1) | low) with the top register bit
					// cleared.
					dec[ns] = byte(b)<<1 | byte(s&1)
				}
			}
		}
		decisions[t] = dec
		metric, next = next, metric
	}

	if metric[0] >= inf {
		return nil, fmt.Errorf("fec: no surviving path to the zero state")
	}

	// Trace back from state 0.
	info := make([]Bit, nSteps)
	s := 0
	for t := nSteps - 1; t >= 0; t-- {
		d := decisions[t][s]
		low := int(d & 1) // predecessor's low register bit
		info[t] = Bit(d >> 1)
		s = (s<<1 | low) &^ (1 << (constraintLen - 1))
	}
	return info[:nInfo], nil
}

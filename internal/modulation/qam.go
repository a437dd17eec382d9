// Package modulation names the TS 38.211 §5.1 modulation orders (QPSK
// through 256-QAM) and holds the MCS tables of TS 38.214, transport-block-size
// (TBS) computation and PRB/resource-element accounting for the bandwidths
// the simulator uses. No symbols are mapped: the PHY prices a block by the
// analytic bit error rate of its scheme (channel.BER).
package modulation

import "fmt"

// Scheme is a modulation order.
type Scheme int

const (
	QPSK   Scheme = 2 // 2 bits/symbol
	QAM16  Scheme = 4
	QAM64  Scheme = 6
	QAM256 Scheme = 8
)

// BitsPerSymbol returns Qm.
func (s Scheme) BitsPerSymbol() int { return int(s) }

func (s Scheme) String() string {
	switch s {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	case QAM256:
		return "256QAM"
	default:
		return fmt.Sprintf("QAM?%d", int(s))
	}
}

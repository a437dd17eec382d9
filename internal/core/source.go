// Package core implements the paper's primary contribution: the system-level
// latency analysis of 5G URLLC. It provides
//
//   - the three-way latency-source taxonomy (§4): protocol, processing and
//     radio latency, with the fixed per-packet source tally the full-stack
//     simulation folds each journey into (Fig. 3);
//   - the analytic worst-case latency engine over arbitrary slot
//     configurations (Fig. 4), built on symbol-level grid queries;
//   - the feasibility evaluation of every minimal configuration against the
//     URLLC deadline (Table 1) and against the 6G targets (§9).
package core

import (
	"fmt"

	"urllcsim/internal/sim"
)

// Source is one of the paper's three latency-source categories (§4).
type Source int

const (
	// Protocol latency is introduced by protocol mechanisms and
	// configuration: waiting for slots, once-per-slot scheduling, SR/grant
	// handshakes, TDD patterns.
	Protocol Source = iota
	// Processing latency is decision-making and data processing time in the
	// stack layers of UE and gNB.
	Processing
	// Radio latency is time spent in the radio head and its interaction
	// with the PHY: RF chains, bus queueing and transfer.
	Radio
	numSources
)

func (s Source) String() string {
	switch s {
	case Protocol:
		return "protocol"
	case Processing:
		return "processing"
	case Radio:
		return "radio"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// ParseSource is the inverse of Source.String, used when re-ingesting
// exported traces. Unknown names report ok=false.
func ParseSource(s string) (Source, bool) {
	switch s {
	case "protocol":
		return Protocol, true
	case "processing":
		return Processing, true
	case "radio":
		return Radio, true
	default:
		return 0, false
	}
}

// NumSources is the number of latency-source categories, for sizing
// per-source arrays outside the package.
const NumSources = int(numSources)

// Sources lists the categories in presentation order.
var Sources = []Source{Protocol, Processing, Radio}

// Tally is a packet's journey time summed per latency source (Fig. 3's
// three-way split). It is a fixed-size value: folding a step in never
// allocates. The step-by-step journey itself is the packet's obs span
// stream.
type Tally [NumSources]sim.Duration

// Add charges d to source src.
func (t *Tally) Add(src Source, d sim.Duration) { t[src] += d }

// Total returns the time charged to all sources.
func (t Tally) Total() sim.Duration { return t[Protocol] + t[Processing] + t[Radio] }

// Dominant returns the category with the largest share.
func (t Tally) Dominant() Source {
	best := Protocol
	for _, s := range Sources {
		if t[s] > t[best] {
			best = s
		}
	}
	return best
}

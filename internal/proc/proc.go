// Package proc models processing latency: the per-layer execution-time
// distributions of a software 5G stack (parameterised from the paper's
// Table 2 measurements on srsRAN/Intel i7), and the OS-scheduling jitter
// that §6 identifies as the reliability threat in software-based 5G.
package proc

import (
	"fmt"

	"urllcsim/internal/sim"
)

// DistKind selects the shape of a processing-time distribution.
type DistKind int

const (
	// Deterministic always returns the mean — the idealisation used by the
	// theoretical URLLC literature the paper criticises ("either negligible
	// processing or protocol-based latencies are assumed").
	Deterministic DistKind = iota
	// Normal is a truncated-at-zero Gaussian.
	Normal
	// LogNormal matches software execution times: strictly positive,
	// right-skewed, occasional large values. Table 2's std≈mean entries are
	// exactly this shape.
	LogNormal
)

// Dist is a processing-time distribution with mean and standard deviation
// given in microseconds (the unit of Table 2). NewDist derives whatever a
// draw needs once, so Sample only draws; the zero Dist always returns 0.
type Dist struct {
	kind   DistKind
	meanUs float64
	stdUs  float64
	logn   sim.LogNormal // the LogNormal kind's underlying µ and σ
}

// NewDist returns a distribution of the given kind, mean and standard
// deviation (µs). A LogNormal with a non-positive mean draws 0 and one with
// a non-positive std draws its mean, consuming no randomness.
func NewDist(kind DistKind, meanUs, stdUs float64) Dist {
	d := Dist{kind: kind, meanUs: meanUs, stdUs: stdUs}
	switch kind {
	case Deterministic, Normal:
	case LogNormal:
		switch {
		case meanUs <= 0:
			d.kind, d.meanUs = Deterministic, 0
		case stdUs <= 0:
			d.kind = Deterministic
		default:
			d.logn = sim.NewLogNormal(meanUs, stdUs)
		}
	default:
		panic(fmt.Sprintf("proc: unknown distribution kind %d", kind))
	}
	return d
}

// Sample draws one processing time.
func (d Dist) Sample(rng *sim.RNG) sim.Duration {
	var us float64
	switch d.kind {
	case Deterministic:
		us = d.meanUs
	case Normal:
		us = rng.Normal(d.meanUs, d.stdUs)
		if us < 0 {
			us = 0
		}
	case LogNormal:
		us = d.logn.Draw(rng)
	}
	return sim.Duration(us * 1000) // µs → ns
}

// Mean returns the mean as a Duration.
func (d Dist) Mean() sim.Duration { return sim.Duration(d.meanUs * 1000) }

// Layer names the stack layers whose processing the simulator times. The
// identifiers match the paper's Table 2 columns.
type Layer int

const (
	LayerSDAP Layer = iota
	LayerPDCP
	LayerRLC
	LayerMAC
	LayerPHY
	numLayers
)

func (l Layer) String() string {
	switch l {
	case LayerSDAP:
		return "SDAP"
	case LayerPDCP:
		return "PDCP"
	case LayerRLC:
		return "RLC"
	case LayerMAC:
		return "MAC"
	case LayerPHY:
		return "PHY"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Layers lists all modelled layers in stack order.
var Layers = []Layer{LayerSDAP, LayerPDCP, LayerRLC, LayerMAC, LayerPHY}

// Profile is a per-layer processing model for one node.
type Profile struct {
	Name  string
	Dists [numLayers]Dist

	// UEScale multiplies sampled times to model load: with n active UEs the
	// per-packet processing time becomes t·(1 + UEScale·(n−1)). §7: "higher
	// number of UEs might increase the processing times noticeably".
	UEScale float64
}

// Sample draws the processing time of one layer under a load of nUEs.
func (p *Profile) Sample(l Layer, nUEs int, rng *sim.RNG) sim.Duration {
	d := p.Dists[l].Sample(rng)
	if nUEs > 1 && p.UEScale > 0 {
		d = sim.Duration(float64(d) * (1 + p.UEScale*float64(nUEs-1)))
	}
	return d
}

// GNBTable2Profile returns the gNB processing profile with the measured
// means and standard deviations of the paper's Table 2 (µs): SDAP 4.65/6.71,
// PDCP 8.29/8.99, RLC 4.12/8.37, MAC 55.21/16.31, PHY 41.55/10.83.
// (RLC-q, the queueing column, is *emergent* — the simulator reproduces it
// from scheduling waits rather than sampling it.)
func GNBTable2Profile() *Profile {
	p := &Profile{Name: "gNB(i7/srsRAN)", UEScale: 0.08}
	p.Dists[LayerSDAP] = NewDist(LogNormal, 4.65, 6.71)
	p.Dists[LayerPDCP] = NewDist(LogNormal, 8.29, 8.99)
	p.Dists[LayerRLC] = NewDist(LogNormal, 4.12, 8.37)
	p.Dists[LayerMAC] = NewDist(LogNormal, 55.21, 16.31)
	p.Dists[LayerPHY] = NewDist(LogNormal, 41.55, 10.83)
	return p
}

// UEModemProfile returns the UE-side profile. §7: "the UE needs more time
// for processing than gNB" — the commercial modem plus its host add roughly
// 3× the gNB's per-layer cost at the upper layers and more at PHY.
func UEModemProfile() *Profile {
	p := &Profile{Name: "UE(SIM8200)", UEScale: 0}
	p.Dists[LayerSDAP] = NewDist(LogNormal, 14, 15)
	p.Dists[LayerPDCP] = NewDist(LogNormal, 25, 20)
	p.Dists[LayerRLC] = NewDist(LogNormal, 12, 18)
	p.Dists[LayerMAC] = NewDist(LogNormal, 120, 45)
	p.Dists[LayerPHY] = NewDist(LogNormal, 150, 60)
	return p
}

// IdealProfile returns zero processing everywhere — the theoretical-paper
// assumption, kept for ablations.
func IdealProfile() *Profile {
	return &Profile{Name: "ideal"}
}

// ASICProfile returns a hardware-accelerated profile: deterministic,
// single-digit microseconds — the "ASIC-based processing … can potentially
// achieve them" branch of §5.
func ASICProfile() *Profile {
	p := &Profile{Name: "ASIC"}
	p.Dists[LayerSDAP] = NewDist(Deterministic, 1, 0)
	p.Dists[LayerPDCP] = NewDist(Deterministic, 2, 0)
	p.Dists[LayerRLC] = NewDist(Deterministic, 1, 0)
	p.Dists[LayerMAC] = NewDist(Deterministic, 5, 0)
	p.Dists[LayerPHY] = NewDist(Deterministic, 8, 0)
	return p
}

// TotalMean returns the summed per-layer mean (without load scaling) — a
// quick feasibility number against the one-slot budget of §5.
func (p *Profile) TotalMean() sim.Duration {
	var t sim.Duration
	for _, l := range Layers {
		t += p.Dists[l].Mean()
	}
	return t
}

// Package radio models the radio head (RH) and its front-haul bus: the time
// to move baseband samples between the processor running the 5G stack and
// the RF hardware. The paper identifies this "radio latency" as one of the
// three fundamental latency sources and measures it for a USRP B210 over
// USB (Fig. 5, §6, §7: "the RH in use introduces around 500µs latency").
//
// Bus constants are empirical fits to the paper's Fig. 5 measurements (the
// figure's axes: 2 000–20 000 submitted samples → 150–400 µs with OS-jitter
// spikes), not first-principles wire models — the measured curves fold
// driver, URB scheduling and buffering costs into the per-sample slope.
package radio

import (
	"urllcsim/internal/nr"
	"urllcsim/internal/proc"
	"urllcsim/internal/sim"
)

// Bus describes one front-haul interconnect.
type Bus struct {
	Name string

	// BaseUs is the fixed per-submission overhead (driver, URB setup,
	// DMA kickoff) in µs.
	BaseUs float64

	// PerSampleNs is the marginal cost per complex sample in ns (sc16:
	// 4 bytes/sample on the wire).
	PerSampleNs float64

	// Jitter is the OS contribution; spikes here are what Fig. 5 shows.
	Jitter proc.OSJitter
}

// Preset buses. USB2/USB3 are fit to Fig. 5; PCIe represents the
// lower-latency front-hauls §4 mentions ("radio latency varies significantly
// depending on the interface used, such as PCIe, Ethernet, or USB").
func USB2() Bus {
	return Bus{Name: "USB 2.0", BaseUs: 172, PerSampleNs: 11.3, Jitter: proc.NonRTKernel()}
}

func USB3() Bus {
	return Bus{Name: "USB 3.0", BaseUs: 143, PerSampleNs: 5.1, Jitter: proc.NonRTKernel()}
}

func PCIe() Bus {
	return Bus{Name: "PCIe", BaseUs: 14, PerSampleNs: 0.35, Jitter: proc.OSJitter{Name: "pcie", BaseStdUs: 1.2, SpikeProb: 0.004, SpikeMinUs: 4, SpikeMaxUs: 18}}
}

// SubmitLatency returns the time to submit nSamples to the RH: the quantity
// of Fig. 5. Deterministic part plus sampled OS jitter.
func (b Bus) SubmitLatency(nSamples int, rng *sim.RNG) sim.Duration {
	return b.DeterministicLatency(nSamples) + b.Jitter.Sample(rng)
}

// DeterministicLatency returns the jitter-free component.
func (b Bus) DeterministicLatency(nSamples int) sim.Duration {
	if nSamples < 0 {
		nSamples = 0
	}
	return sim.Duration(b.BaseUs*1000) + sim.Duration(float64(nSamples)*b.PerSampleNs)
}

// Head is a radio head bound to a numerology and sample rate. It converts
// between air-interface durations and sample counts. The DES charges
// RxLatency (antenna → PHY) on receive; on transmit it charges the bus
// submission plus ConvertUs inline, ahead of the slot's air time
// (internal/node's launchDL).
type Head struct {
	Name         string
	Bus          Bus
	SampleRateHz float64

	// ConvertUs is the DAC/ADC and analog front-end latency (µs), charged
	// on both directions.
	ConvertUs float64

	// FIFOUs is the driver/firmware sample FIFO dwell time (µs): samples
	// sit in the device buffer between DMA completion and the hardware
	// clock consuming them. On the B210 this term dominates after the bus.
	FIFOUs float64
}

// B210 returns the paper's testbed radio: USRP B210 on USB, 23.04 MS/s
// (the standard srsRAN rate for a 20 MHz / µ1 carrier). Its one-way latency
// at µ1 lands near the ≈500 µs the paper reports in §7.
func B210(bus Bus) *Head {
	return &Head{Name: "USRP B210", Bus: bus, SampleRateHz: 23.04e6, ConvertUs: 35, FIFOUs: 150}
}

// LowLatencySDR returns a PCIe SDR profile (e.g. X310-class) for ablations.
func LowLatencySDR() *Head {
	return &Head{Name: "PCIe SDR", Bus: PCIe(), SampleRateHz: 61.44e6, ConvertUs: 8, FIFOUs: 5}
}

// SamplesPerDuration converts an air-time duration to a sample count.
func (h *Head) SamplesPerDuration(d sim.Duration) int {
	return int(float64(d) * h.SampleRateHz / 1e9)
}

// SamplesPerSlot returns the samples in one slot of µ.
func (h *Head) SamplesPerSlot(mu nr.Numerology) int {
	return h.SamplesPerDuration(mu.SlotDuration())
}

// RxLatency returns antenna → PHY latency for one slot of samples. The
// receive path needs no driver pre-buffering, so it is the bus plus
// conversion cost.
func (h *Head) RxLatency(mu nr.Numerology, rng *sim.RNG) sim.Duration {
	n := h.SamplesPerSlot(mu)
	return h.Bus.SubmitLatency(n, rng) + sim.Duration((h.ConvertUs+h.FIFOUs)*1000)
}

// MeanOneWay returns the jitter-free one-way radio latency for µ — the
// number the scheduler's readiness margin must cover (§4: "the MAC
// scheduler must be designed to account for … radio latency. Failure to do
// so may result in the radio not being ready for transmission").
func (h *Head) MeanOneWay(mu nr.Numerology) sim.Duration {
	n := h.SamplesPerSlot(mu)
	return h.Bus.DeterministicLatency(n) + sim.Duration((h.ConvertUs+h.FIFOUs)*1000)
}

// SubmissionPoint is one measurement of the Fig. 5 experiment.
type SubmissionPoint struct {
	Samples   int
	LatencyUs float64
}

// SubmissionSweep reproduces Fig. 5: for each sample count in
// [from, to] stepped by step, perform reps submissions and record each
// latency. The scatter (spikes included) is returned, one point per rep.
func SubmissionSweep(b Bus, from, to, step, reps int, rng *sim.RNG) []SubmissionPoint {
	var pts []SubmissionPoint
	for n := from; n <= to; n += step {
		for r := 0; r < reps; r++ {
			lat := b.SubmitLatency(n, rng)
			pts = append(pts, SubmissionPoint{Samples: n, LatencyUs: float64(lat) / 1000})
		}
	}
	return pts
}

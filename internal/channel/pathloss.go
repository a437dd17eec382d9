package channel

import (
	"fmt"
	"math"

	"urllcsim/internal/sim"
)

// Environment selects a TR 38.901 path-loss scenario (simplified to the
// LOS single-slope forms).
type Environment int

const (
	// UMa is urban macro (public 5G, tower-mounted gNB).
	UMa Environment = iota
	// UMi is urban micro (street-level small cell).
	UMi
	// InH is indoor hotspot/office (the paper's private-5G factory floor).
	InH
)

func (e Environment) String() string {
	switch e {
	case UMa:
		return "UMa"
	case UMi:
		return "UMi"
	case InH:
		return "InH"
	default:
		return fmt.Sprintf("env(%d)", int(e))
	}
}

// PathLossDB returns the LOS path loss in dB at the given 3D distance and
// carrier frequency. Single-slope simplifications of TR 38.901 Table 7.4.1-1
// (valid in the pre-breakpoint region the simulator's cell sizes live in):
//
//	UMa: 28.0 + 22·log10(d) + 20·log10(f)
//	UMi: 32.4 + 21·log10(d) + 20·log10(f)
//	InH: 32.4 + 17.3·log10(d) + 20·log10(f)
func PathLossDB(env Environment, distanceM, freqGHz float64) (float64, error) {
	if distanceM < 1 || freqGHz <= 0 {
		return 0, fmt.Errorf("channel: bad link geometry d=%vm f=%vGHz", distanceM, freqGHz)
	}
	lf := 20 * math.Log10(freqGHz)
	ld := math.Log10(distanceM)
	switch env {
	case UMa:
		return 28.0 + 22*ld + lf, nil
	case UMi:
		return 32.4 + 21*ld + lf, nil
	case InH:
		return 32.4 + 17.3*ld + lf, nil
	default:
		return 0, fmt.Errorf("channel: unknown environment %d", int(env))
	}
}

// LinkBudget computes the received SNR of a link.
type LinkBudget struct {
	TxPowerDBm    float64 // e.g. 30 dBm small cell, 23 dBm UE
	TxAntennaGain float64 // dBi
	RxAntennaGain float64 // dBi
	NoiseFigureDB float64 // receiver NF (7–9 dB typical)
	BandwidthHz   float64 // noise bandwidth
	Environment   Environment
	FreqGHz       float64
	ShadowStdDB   float64 // log-normal shadowing σ (0 = disabled)
}

// thermalNoiseDBm returns kTB in dBm for the bandwidth.
func (l LinkBudget) thermalNoiseDBm() float64 {
	return -174 + 10*math.Log10(l.BandwidthHz)
}

// SNRAt returns the LOS SNR in dB at a distance, with optional shadowing
// drawn from rng (pass nil for the median).
func (l LinkBudget) SNRAt(distanceM float64, rng *sim.RNG) (float64, error) {
	pl, err := PathLossDB(l.Environment, distanceM, l.FreqGHz)
	if err != nil {
		return 0, err
	}
	if l.ShadowStdDB > 0 && rng != nil {
		pl += rng.Normal(0, l.ShadowStdDB)
	}
	rx := l.TxPowerDBm + l.TxAntennaGain + l.RxAntennaGain - pl
	return rx - l.thermalNoiseDBm() - l.NoiseFigureDB, nil
}

// PrivateFactoryBudget returns a typical private-5G indoor link: 24 dBm
// small cell, n78 (3.7 GHz), 40 MHz carrier, indoor hotspot propagation.
func PrivateFactoryBudget() LinkBudget {
	return LinkBudget{
		TxPowerDBm:    24,
		TxAntennaGain: 5,
		RxAntennaGain: 0,
		NoiseFigureDB: 8,
		BandwidthHz:   40e6,
		Environment:   InH,
		FreqGHz:       3.7,
		ShadowStdDB:   3,
	}
}

package modulation

import "fmt"

// MCS is one row of the TS 38.214 Table 5.1.3.1-1 (64QAM MCS table):
// modulation order plus target code rate ×1024.
type MCS struct {
	Index     int
	Scheme    Scheme
	RateX1024 float64
}

// MCSTable64 is the full 29-entry qam64 MCS table of TS 38.214.
var MCSTable64 = []MCS{
	{0, QPSK, 120}, {1, QPSK, 157}, {2, QPSK, 193}, {3, QPSK, 251},
	{4, QPSK, 308}, {5, QPSK, 379}, {6, QPSK, 449}, {7, QPSK, 526},
	{8, QPSK, 602}, {9, QPSK, 679},
	{10, QAM16, 340}, {11, QAM16, 378}, {12, QAM16, 434}, {13, QAM16, 490},
	{14, QAM16, 553}, {15, QAM16, 616}, {16, QAM16, 658},
	{17, QAM64, 438}, {18, QAM64, 466}, {19, QAM64, 517}, {20, QAM64, 567},
	{21, QAM64, 616}, {22, QAM64, 666}, {23, QAM64, 719}, {24, QAM64, 772},
	{25, QAM64, 822}, {26, QAM64, 873}, {27, QAM64, 910}, {28, QAM64, 948},
}

// Rate returns the code rate as a fraction.
func (m MCS) Rate() float64 { return m.RateX1024 / 1024 }

// MCSByIndex returns the table row, or an error for out-of-range indices.
func MCSByIndex(i int) (MCS, error) {
	if i < 0 || i >= len(MCSTable64) {
		return MCS{}, fmt.Errorf("modulation: MCS index %d out of range", i)
	}
	return MCSTable64[i], nil
}

// SubcarriersPerPRB is fixed at 12 (TS 38.211).
const SubcarriersPerPRB = 12

// REsPerPRBCap is the TS 38.214 cap on usable REs per PRB per slot (156 of
// the 168 raw REs, the rest going to DMRS and overhead).
const REsPerPRBCap = 156

// TBSParams describes one allocation for transport-block sizing.
type TBSParams struct {
	PRBs       int // allocated PRBs
	Symbols    int // allocated OFDM symbols (1–14)
	DMRSPerPRB int // DMRS REs per PRB in the allocation (typ. 12–24 per slot)
	Layers     int // MIMO layers ν (1–4)
	MCS        MCS
}

// TBS computes the transport block size in *bits* following the TS 38.214
// §5.1.3.2 procedure. For N_info ≤ 3824 the standard consults a 93-entry
// table; we apply the standard's quantisation and round up to a byte
// multiple instead (documented simplification — within one table step of the
// standard value, irrelevant to latency behaviour).
func TBS(p TBSParams) (int, error) {
	if p.PRBs <= 0 || p.Symbols <= 0 || p.Symbols > 14 {
		return 0, fmt.Errorf("modulation: bad TBS allocation %+v", p)
	}
	if p.Layers <= 0 {
		p.Layers = 1
	}
	nREPrime := SubcarriersPerPRB*p.Symbols - p.DMRSPerPRB
	if nREPrime <= 0 {
		return 0, fmt.Errorf("modulation: allocation has no data REs (%+v)", p)
	}
	if nREPrime > REsPerPRBCap {
		nREPrime = REsPerPRBCap
	}
	nRE := nREPrime * p.PRBs
	nInfo := float64(nRE) * p.MCS.Rate() * float64(p.MCS.Scheme.BitsPerSymbol()) * float64(p.Layers)
	if nInfo < 24 {
		return 24, nil
	}
	if nInfo <= 3824 {
		n := max(3, ilog2(int(nInfo))-6)
		q := (int(nInfo) >> uint(n)) << uint(n)
		if q < 24 {
			q = 24
		}
		// Byte-align (the standard's table is byte-aligned throughout).
		return (q + 7) / 8 * 8, nil
	}
	// Large-TBS branch, straight from the standard.
	n := ilog2(int(nInfo)-24) - 5
	step := 1 << uint(n)
	nInfoP := step * int((nInfo-24)/float64(step)+0.5)
	var tbs int
	if p.MCS.Rate() <= 0.25 {
		c := (nInfoP + 24 + 3839) / 3840
		tbs = 8*c*((nInfoP+24+8*c-1)/(8*c)) - 24
	} else if nInfoP > 8424 {
		c := (nInfoP + 24 + 8423) / 8424
		tbs = 8*c*((nInfoP+24+8*c-1)/(8*c)) - 24
	} else {
		tbs = 8*((nInfoP+24+7)/8) - 24
	}
	return tbs, nil
}

func ilog2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// SymbolsForBits returns how many OFDM symbols an allocation of nPRB PRBs
// needs to carry tbBits at the given MCS — the quantity the worst-case
// engine uses to size the "couple of symbols" a small URLLC packet occupies.
func SymbolsForBits(tbBits, nPRB int, mcs MCS, dmrsPerPRB int) (int, error) {
	if nPRB <= 0 || tbBits <= 0 {
		return 0, fmt.Errorf("modulation: bad SymbolsForBits args")
	}
	for sym := 1; sym <= 14; sym++ {
		size, err := TBS(TBSParams{PRBs: nPRB, Symbols: sym, DMRSPerPRB: min(dmrsPerPRB, sym*SubcarriersPerPRB-1), Layers: 1, MCS: mcs})
		if err != nil {
			continue
		}
		if size >= tbBits {
			return sym, nil
		}
	}
	return 0, fmt.Errorf("modulation: %d bits do not fit in 14 symbols × %d PRBs at %v", tbBits, nPRB, mcs.Scheme)
}

package modulation

import "testing"

func TestSchemeBasics(t *testing.T) {
	if QPSK.BitsPerSymbol() != 2 || QAM256.BitsPerSymbol() != 8 {
		t.Fatal("Qm wrong")
	}
	if QPSK.String() != "QPSK" || QAM16.String() != "16QAM" {
		t.Fatal("String wrong")
	}
}

func TestMCSTable(t *testing.T) {
	if len(MCSTable64) != 29 {
		t.Fatalf("MCS table has %d rows, want 29", len(MCSTable64))
	}
	for i, m := range MCSTable64 {
		if m.Index != i {
			t.Fatalf("row %d has index %d", i, m.Index)
		}
		if m.Rate() <= 0 || m.Rate() >= 1 {
			t.Fatalf("MCS %d rate %v out of range", i, m.Rate())
		}
	}
	// Spectral efficiency is essentially non-decreasing. The real table has
	// one deliberate dip at each modulation switch (e.g. MCS16 16QAM r=0.64
	// → MCS17 64QAM r=0.43, 2.570 → 2.566): the lower rate buys coding
	// robustness for the denser constellation. Allow that standard quirk.
	prev := 0.0
	for _, m := range MCSTable64 {
		se := m.Rate() * float64(m.Scheme.BitsPerSymbol())
		if se < prev-0.01 {
			t.Fatalf("MCS %d efficiency %v below previous %v", m.Index, se, prev)
		}
		if se > prev {
			prev = se
		}
	}
	if _, err := MCSByIndex(29); err == nil {
		t.Fatal("MCS 29 accepted")
	}
	if m, err := MCSByIndex(9); err != nil || m.Scheme != QPSK || m.RateX1024 != 679 {
		t.Fatalf("MCS 9 = %+v, %v", m, err)
	}
}

func TestTBSSmallAllocations(t *testing.T) {
	mcs, _ := MCSByIndex(10) // 16QAM r=0.33
	size, err := TBS(TBSParams{PRBs: 4, Symbols: 2, DMRSPerPRB: 6, Layers: 1, MCS: mcs})
	if err != nil {
		t.Fatal(err)
	}
	// 4 PRBs × (24−6)=18 REs × 4 bits × 0.332 ≈ 95.6 → quantised ≤ 96.
	if size < 24 || size > 104 {
		t.Fatalf("TBS = %d, want ≈96", size)
	}
	if size%8 != 0 {
		t.Fatalf("TBS %d not byte aligned", size)
	}
}

func TestTBSMonotonicInPRBs(t *testing.T) {
	mcs, _ := MCSByIndex(15)
	prev := 0
	for prbs := 1; prbs <= 273; prbs += 4 {
		size, err := TBS(TBSParams{PRBs: prbs, Symbols: 12, DMRSPerPRB: 12, Layers: 1, MCS: mcs})
		if err != nil {
			t.Fatal(err)
		}
		if size < prev {
			t.Fatalf("TBS not monotone at %d PRBs: %d < %d", prbs, size, prev)
		}
		prev = size
	}
}

func TestTBSLargeBranch(t *testing.T) {
	mcs, _ := MCSByIndex(28) // 64QAM r=0.926
	size, err := TBS(TBSParams{PRBs: 273, Symbols: 12, DMRSPerPRB: 12, Layers: 4, MCS: mcs})
	if err != nil {
		t.Fatal(err)
	}
	// 273×(144−12 capped at 156… here 132)×6×0.926×4 ≈ 0.8 Mbit.
	if size < 500_000 || size > 1_200_000 {
		t.Fatalf("large TBS = %d, out of plausible range", size)
	}
	if (size+24)%8 != 0 {
		t.Fatalf("large TBS %d violates byte structure", size)
	}
}

func TestTBSErrors(t *testing.T) {
	mcs, _ := MCSByIndex(0)
	if _, err := TBS(TBSParams{PRBs: 0, Symbols: 2, MCS: mcs}); err == nil {
		t.Fatal("0 PRBs accepted")
	}
	if _, err := TBS(TBSParams{PRBs: 1, Symbols: 15, MCS: mcs}); err == nil {
		t.Fatal("15 symbols accepted")
	}
	if _, err := TBS(TBSParams{PRBs: 1, Symbols: 2, DMRSPerPRB: 24, MCS: mcs}); err == nil {
		t.Fatal("all-DMRS allocation accepted")
	}
}

func TestSymbolsForBits(t *testing.T) {
	mcs, _ := MCSByIndex(10)
	// A 32-byte ping in a 106-PRB carrier needs very few symbols.
	syms, err := SymbolsForBits(32*8, 106, mcs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if syms < 1 || syms > 2 {
		t.Fatalf("32B needs %d symbols, want 1–2", syms)
	}
	// An impossible payload must error.
	if _, err := SymbolsForBits(10_000_000, 1, mcs, 12); err == nil {
		t.Fatal("impossible payload accepted")
	}
}

func TestSymbolsForBitsMonotone(t *testing.T) {
	mcs, _ := MCSByIndex(5)
	prev := 0
	// MCS5 QPSK r=0.37 over 51 PRBs tops out near 5.9 kbit in a full slot.
	for _, bits := range []int{64, 256, 1024, 4096, 5500} {
		syms, err := SymbolsForBits(bits, 51, mcs, 12)
		if err != nil {
			t.Fatal(err)
		}
		if syms < prev {
			t.Fatalf("symbols not monotone: %d bits → %d", bits, syms)
		}
		prev = syms
	}
}

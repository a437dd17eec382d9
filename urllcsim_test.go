package urllcsim

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"urllcsim/internal/obs"
)

func TestTable1PublicAPI(t *testing.T) {
	cells, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 15 {
		t.Fatalf("Table1 returned %d cells, want 15", len(cells))
	}
	byKey := map[Pattern]map[Mode]bool{}
	for _, c := range cells {
		if byKey[c.Pattern] == nil {
			byKey[c.Pattern] = map[Mode]bool{}
		}
		byKey[c.Pattern][c.Mode] = c.Meets
	}
	// The paper's verdicts.
	if !byKey[PatternDM][GrantFreeUplink] || !byKey[PatternDM][DownlinkMode] {
		t.Fatal("DM must pass GF UL and DL")
	}
	if byKey[PatternDM][GrantBasedUplink] {
		t.Fatal("DM must fail grant-based UL")
	}
	if byKey[PatternDU][DownlinkMode] || byKey[PatternMU][DownlinkMode] {
		t.Fatal("DU/MU must fail DL")
	}
	for _, m := range []Mode{GrantBasedUplink, GrantFreeUplink, DownlinkMode} {
		if !byKey[PatternMiniSlot][m] || !byKey[PatternFDD][m] {
			t.Fatalf("mini-slot and FDD must pass mode %d", m)
		}
	}
}

func TestWorstCaseLatencyPublicAPI(t *testing.T) {
	wc, err := WorstCaseLatency(PatternDM, Slot0p25ms, GrantFreeUplink, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wc > URLLCDeadline || wc < 300*time.Microsecond {
		t.Fatalf("DM GF worst = %v", wc)
	}
	ok, err := MeetsURLLC(PatternDM, Slot0p25ms, GrantFreeUplink, AnalysisOptions{})
	if err != nil || !ok {
		t.Fatal("DM GF must meet URLLC")
	}
	// Adding a 0.3ms radio term breaks it (§4's bottleneck).
	ok, err = MeetsURLLC(PatternDM, Slot0p25ms, GrantFreeUplink,
		AnalysisOptions{RadioLatency: 300 * time.Microsecond})
	if err != nil || ok {
		t.Fatal("0.3ms radio must break the DM budget")
	}
	if _, err := WorstCaseLatency("bogus", Slot0p25ms, DownlinkMode, AnalysisOptions{}); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

func TestMinimumFR1Slot(t *testing.T) {
	if got := MinimumFR1Slot(); got != 250*time.Microsecond {
		t.Fatalf("min FR1 slot = %v, want 0.25ms", got)
	}
}

func TestScenarioEndToEnd(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2, Seed: 3,
		Obs: obs.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sc.SendUplink(time.Duration(i)*2*time.Millisecond, 32)
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond+time.Millisecond, 32)
	}
	rs := sc.Run(200 * time.Millisecond)
	if len(rs) != 40 {
		t.Fatalf("resolved %d packets, want 40", len(rs))
	}
	for _, r := range rs {
		if !r.Delivered {
			t.Fatalf("packet %d lost", r.ID)
		}
		if r.Latency <= 0 || r.Latency > 20*time.Millisecond {
			t.Fatalf("packet %d latency %v implausible", r.ID, r.Latency)
		}
		if j, err := sc.Journey(r.ID); err != nil || j == "" {
			t.Fatalf("packet %d: empty journey (err %v)", r.ID, err)
		}
		sum := r.ProtocolShare() + r.ProcessingShare() + r.RadioShare()
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("shares sum to %v", sum)
		}
	}
}

// TestJourneyNeedsRetainedSpans pins Scenario.Journey's failure modes: the
// journey is rendered from the recorder's retained spans, so a scenario
// without a recorder, with span retention off, or with the packet sampled
// out reports a one-line error instead of an empty table.
func TestJourneyNeedsRetainedSpans(t *testing.T) {
	noRetain := obs.NewRecorder()
	noRetain.SetRetention(false, true)
	sampledOut := obs.NewRecorder()
	sampledOut.SetSampling(0, 1)
	for _, c := range []struct {
		name string
		rec  *obs.Recorder
		want string
	}{
		{"no recorder", nil, "needs a recorder"},
		{"retention off", noRetain, "no retained spans"},
		{"sampled out", sampledOut, "no retained spans"},
	} {
		sc, err := NewScenario(ScenarioConfig{
			Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2, Seed: 3, Obs: c.rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		id := sc.SendUplink(0, 32)
		if rs := sc.Run(50 * time.Millisecond); len(rs) != 1 || !rs[0].Delivered {
			t.Fatalf("%s: packet not delivered: %+v", c.name, rs)
		}
		j, err := sc.Journey(id)
		if err == nil || j != "" {
			t.Fatalf("%s: Journey = %q, %v; want an error", c.name, j, err)
		}
		if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
			t.Fatalf("%s: error %q, want one line containing %q", c.name, msg, c.want)
		}
	}
}

func TestScenarioGrantFreeFaster(t *testing.T) {
	mean := func(gf bool) time.Duration {
		sc, err := NewScenario(ScenarioConfig{
			Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
			GrantFree: gf, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			sc.SendUplink(time.Duration(i)*2*time.Millisecond+137*time.Microsecond, 32)
		}
		rs := sc.Run(400 * time.Millisecond)
		var sum time.Duration
		n := 0
		for _, r := range rs {
			if r.Delivered {
				sum += r.Latency
				n++
			}
		}
		if n == 0 {
			t.Fatal("nothing delivered")
		}
		return sum / time.Duration(n)
	}
	gb, gf := mean(false), mean(true)
	if gf >= gb {
		t.Fatalf("grant-free (%v) not faster than grant-based (%v)", gf, gb)
	}
}

func TestScenarioLayerStats(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{Pattern: PatternDDDU, SlotScale: Slot0p5ms, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	sc.Run(400 * time.Millisecond)
	mean, _, n, err := sc.LayerStat("RLC-q")
	if err != nil || n == 0 {
		t.Fatalf("RLC-q stat: %v", err)
	}
	if mean < 100 || mean > 1000 {
		t.Fatalf("RLC-q mean %vµs out of range", mean)
	}
	if _, _, _, err := sc.LayerStat("nope"); err == nil {
		t.Fatal("bogus layer accepted")
	}
}

func TestScenarioBadConfig(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Pattern: "nope"}); err == nil {
		t.Fatal("bogus pattern accepted")
	}
	if _, err := NewScenario(ScenarioConfig{Radio: RadioKind(99)}); err == nil {
		t.Fatal("bogus radio accepted")
	}
}

func TestCustomPatternString(t *testing.T) {
	// Any D/U/S string is a valid pattern for both the scenario and the
	// analytic engine.
	sc, err := NewScenario(ScenarioConfig{
		Pattern: "DDSU", SlotScale: Slot0p25ms, GrantFree: true,
		Radio: RadioPCIe, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.SendUplink(100*time.Microsecond, 32)
	rs := sc.Run(50 * time.Millisecond)
	if len(rs) != 1 || !rs[0].Delivered {
		t.Fatalf("custom pattern run failed: %+v", rs)
	}
	wc, err := WorstCaseLatency("DDSU", Slot0p25ms, GrantFreeUplink, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wc <= 0 || wc > 2*time.Millisecond {
		t.Fatalf("custom pattern worst case %v implausible", wc)
	}
	// Garbage still errors.
	if _, err := WorstCaseLatency("DXQ", Slot0p25ms, GrantFreeUplink, AnalysisOptions{}); err == nil {
		t.Fatal("garbage pattern accepted")
	}
	if _, err := NewScenario(ScenarioConfig{Pattern: "DDU", SlotScale: Slot0p5ms}); err == nil {
		t.Fatal("illegal 1.5ms period accepted")
	}
}

// TestRunResultsAliasing edits the slice Run returns, as a caller sorting
// it before taking percentiles would, and checks that the packets a later
// Run resolves are unchanged: Run returns the scenario's own record without
// copying, so only that prefix may show the edit.
func TestRunResultsAliasing(t *testing.T) {
	run := func(edit bool) []PacketResult {
		sc, err := NewScenario(ScenarioConfig{
			Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 2 * time.Millisecond
			sc.SendUplink(at, 32)
			sc.SendDownlink(at, 32)
		}
		first := sc.Run(20 * time.Millisecond)
		if len(first) == 0 || len(first) == 40 {
			t.Fatalf("first Run resolved %d of 40 packets, want some but not all", len(first))
		}
		if edit {
			slices.SortFunc(first, func(a, b PacketResult) int { return cmp.Compare(b.ID, a.ID) })
			for i := range first {
				first[i].Latency, first[i].Delivered = 0, false
			}
		}
		all := sc.Run(200 * time.Millisecond)
		return all[len(first):]
	}
	want := run(false)
	got := run(true)
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("editing Run's results changed later packets:\n got %+v\nwant %+v", got, want)
	}
}

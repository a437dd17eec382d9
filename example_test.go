package urllcsim_test

import (
	"fmt"
	"time"

	"urllcsim"
)

// The analytic engine answers the paper's Table 1 question for a single
// cell: does the DM configuration meet 0.5 ms for grant-free uplink?
func ExampleMeetsURLLC() {
	ok, err := urllcsim.MeetsURLLC(urllcsim.PatternDM, urllcsim.Slot0p25ms,
		urllcsim.GrantFreeUplink, urllcsim.AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("DM grant-free meets URLLC:", ok)

	// The §4 bottleneck: a 0.3 ms radio breaks the same budget.
	ok, _ = urllcsim.MeetsURLLC(urllcsim.PatternDM, urllcsim.Slot0p25ms,
		urllcsim.GrantFreeUplink,
		urllcsim.AnalysisOptions{RadioLatency: 300 * time.Microsecond})
	fmt.Println("…with a 0.3ms radio:", ok)
	// Output:
	// DM grant-free meets URLLC: true
	// …with a 0.3ms radio: false
}

// Custom slot patterns parse directly: one letter per slot.
func ExampleWorstCaseLatency() {
	wc, err := urllcsim.WorstCaseLatency("DDSU", urllcsim.Slot0p25ms,
		urllcsim.DownlinkMode, urllcsim.AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("DDSU DL worst case:", wc)
	// Output:
	// DDSU DL worst case: 571.427µs
}

// A full-stack simulation of the paper's §7 testbed: one uplink ping,
// deterministic for a fixed seed.
func ExampleNewScenario() {
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:   urllcsim.PatternDDDU,
		SlotScale: urllcsim.Slot0p5ms,
		Radio:     urllcsim.RadioUSB2,
		Seed:      7,
	})
	if err != nil {
		panic(err)
	}
	sc.SendUplink(100*time.Microsecond, 32)
	results := sc.Run(50 * time.Millisecond)
	r := results[0]
	fmt.Println("delivered:", r.Delivered)
	fmt.Println("under 10ms:", r.Latency < 10*time.Millisecond)
	fmt.Println("protocol dominates:", r.ProtocolShare() > r.ProcessingShare() && r.ProtocolShare() > r.RadioShare())
	// Output:
	// delivered: true
	// under 10ms: true
	// protocol dominates: true
}

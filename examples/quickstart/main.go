// Quickstart: send one ping each way through the simulated 5G testbed of
// the paper's §7 (srsRAN-style gNB, B210 over USB2, TDD DDDU at 0.5 ms
// slots) and print where the time went.
package main

import (
	"fmt"
	"log"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
)

func main() {
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:   urllcsim.PatternDDDU,
		SlotScale: urllcsim.Slot0p5ms,
		Radio:     urllcsim.RadioUSB2,
		Seed:      2024,
		// The recorder keeps each packet's spans: the journey tables below
		// are rendered from them.
		Obs: obs.NewRecorder(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// One uplink ping (UE → network) and one downlink ping (network → UE).
	sc.SendUplink(300*time.Microsecond, 32)
	sc.SendDownlink(5*time.Millisecond, 32)

	for _, r := range sc.Run(100 * time.Millisecond) {
		dir := "downlink"
		if r.Uplink {
			dir = "uplink"
		}
		fmt.Printf("=== %s ping: %v one-way (delivered=%v) ===\n",
			dir, r.Latency.Round(time.Microsecond), r.Delivered)
		journey, err := sc.Journey(r.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(journey)
		fmt.Printf("latency sources: protocol %.0f%% / processing %.0f%% / radio %.0f%%\n\n",
			100*r.ProtocolShare(), 100*r.ProcessingShare(), 100*r.RadioShare())
	}

	// The analytic side: can any configuration meet 0.5 ms at all?
	fmt.Println("=== worst-case feasibility (the paper's Table 1) ===")
	table, err := urllcsim.Table1String()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)
}

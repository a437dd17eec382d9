package urllcsim

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"urllcsim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestJourneyGolden pins the Fig. 3 journey text of the three
// `urllcsim -journey` configurations (DDDU, 0.5 ms slots, USB2 B210, seed 1,
// arrival 337 µs) byte for byte; `make journey-smoke` holds the CLI to the
// same files. Regenerate with `go test -run JourneyGolden -update`.
func TestJourneyGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		dl, gf bool
	}{
		{"ul", false, false},
		{"dl", true, false},
		{"grantfree", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := NewScenario(ScenarioConfig{
				Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
				GrantFree: c.gf, Seed: 1, Deadline: 500 * time.Microsecond,
				Obs: obs.NewRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			at := 337 * time.Microsecond
			var id int
			if c.dl {
				id = sc.SendDownlink(at, 32)
			} else {
				id = sc.SendUplink(at, 32)
			}
			rs := sc.Run(100 * time.Millisecond)
			if len(rs) != 1 || rs[0].ID != id {
				t.Fatalf("resolved %d packets, want packet %d", len(rs), id)
			}
			got, err := sc.Journey(id)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "journey_"+c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("journey drifted from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

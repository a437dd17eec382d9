package runflag

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
)

// bind parses args into a fresh flag set carrying only the shared flags.
func bind(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("runflag", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, 50)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return f
}

func TestSharedFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		access string
		want   string
	}{
		{[]string{"-sample-rate", "0"}, "false", "-sample-rate 0 outside (0,1]"},
		{[]string{"-sample-rate", "-1"}, "false", "-sample-rate -1 outside (0,1]"},
		{[]string{"-sample-rate", "NaN"}, "false", "-sample-rate NaN outside (0,1]"},
		{[]string{"-sample-rate", "1.5"}, "false", "-sample-rate 1.5 outside (0,1]"},
		{[]string{"-ues", "0"}, "false", "-ues 0: need at least 1"},
		{[]string{"-packets", "-5"}, "false", "-packets -5: need at least 1"},
		{[]string{"-deadline", "-1us"}, "false", "-deadline -1µs: must not be negative"},
		{[]string{"-flight-topk", "0"}, "false", "-flight-topk 0: need at least 1"},
		{[]string{"-slot", "2ms"}, "false", `unknown -slot "2ms" (1ms | 0.5ms | 0.25ms | 125us)`},
		{[]string{"-slot", "0.5ms,2ms"}, "false", `unknown -slot "2ms" (1ms | 0.5ms | 0.25ms | 125us)`},
		{[]string{"-radio", "wifi"}, "false", `unknown -radio "wifi" (usb2 | usb3 | pcie | none)`},
		{nil, "maybe", `unknown -grantfree "maybe" (false | true)`},
		{[]string{"-pattern", "XYZ"}, "false",
			`-pattern XYZ at 0.5ms: urllcsim: pattern "XYZ": nr: invalid slot letter 'X' in "XYZ"`},
	} {
		grid, err := bind(t, c.args...).Grid(c.access)
		if err == nil {
			t.Errorf("%v (access %s) accepted: %v", c.args, c.access, grid)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%v (access %s): %q, want %q", c.args, c.access, err, c.want)
		}
	}
}

// TestGridCrossesAxes pins the grid's nesting order (pattern, slot, access,
// radio), its labels and the trimming of list items.
func TestGridCrossesAxes(t *testing.T) {
	grid, err := bind(t, "-pattern", "DDDU, DDSU", "-slot", "0.5ms,0.25ms", "-radio", "usb2,pcie").Grid("false, true")
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range grid {
		labels = append(labels, p.Label)
	}
	want := "DDDU/0.5ms/gb/usb2 DDDU/0.5ms/gb/pcie DDDU/0.5ms/gf/usb2 DDDU/0.5ms/gf/pcie " +
		"DDDU/0.25ms/gb/usb2 DDDU/0.25ms/gb/pcie DDDU/0.25ms/gf/usb2 DDDU/0.25ms/gf/pcie " +
		"DDSU/0.5ms/gb/usb2 DDSU/0.5ms/gb/pcie DDSU/0.5ms/gf/usb2 DDSU/0.5ms/gf/pcie " +
		"DDSU/0.25ms/gb/usb2 DDSU/0.25ms/gb/pcie DDSU/0.25ms/gf/usb2 DDSU/0.25ms/gf/pcie"
	if got := strings.Join(labels, " "); got != want {
		t.Fatalf("grid\n%s\nwant\n%s", got, want)
	}
	last := grid[len(grid)-1]
	if last.Pattern != "DDSU" || last.Slot != "0.25ms" || last.Radio != "pcie" || !last.GrantFree {
		t.Fatalf("last point %+v", last)
	}
}

func TestScenarioCarriesSharedFlags(t *testing.T) {
	f := bind(t, "-pattern", "FDD", "-slot", "125us", "-radio", "none", "-ues", "4", "-deadline", "300us")
	grid, err := f.Grid("true")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	got := f.Scenario(grid[0], 9, rec)
	want := urllcsim.ScenarioConfig{
		Pattern: urllcsim.PatternFDD, SlotScale: urllcsim.Slot125us, GrantFree: true,
		Radio: urllcsim.RadioNone, UEs: 4, Seed: 9, Deadline: 300 * time.Microsecond, Obs: rec,
	}
	if got != want {
		t.Fatalf("scenario %+v, want %+v", got, want)
	}
}

func TestRecordSetsUpRecorder(t *testing.T) {
	plain := obs.NewRecorder()
	if fr := bind(t).Record(plain, 1, 0, false); fr != nil || plain.SlotLedgerEnabled() {
		t.Fatalf("default flags: flight %v, ledger %v", fr, plain.SlotLedgerEnabled())
	}
	rec := obs.NewRecorder()
	if fr := bind(t, "-slots-out", "s.jsonl").Record(rec, 1, 5, true); fr == nil || !rec.SlotLedgerEnabled() {
		t.Fatalf("-slots-out with flight: flight %v, ledger %v", fr, rec.SlotLedgerEnabled())
	}
}

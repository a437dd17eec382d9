package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// parseArgs parses args as urllcsim's command line.
func parseArgs(args ...string) (*options, error) {
	fs := flag.NewFlagSet("urllcsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// TestUsageErrors feeds parse every usage error urllcsim rejects (the
// obs-smoke list, plus a grid of more than one point): each is one line.
func TestUsageErrors(t *testing.T) {
	for _, a := range []string{
		"-sample-rate 0", "-sample-rate -1", "-sample-rate NaN",
		"-ues 0", "-dir up", "-journey up", "-packets -5", "-bytes -1", "-deadline -1us", "-snr NaN",
		"-flight-topk 0", "-flight-topk -1", "-watchdog-window 0", "-watchdog-window -3",
		"-watchdog-missrate NaN", "-watchdog-missrate -1", "-watchdog-missrate 1.5", "-watchdog-p99 -1us",
		"-pattern XYZ", "-slot 2ms", "-radio wifi",
		"-pattern DDDU,DM", "-slot 0.5ms,0.25ms", "-radio usb2,pcie",
	} {
		_, err := parseArgs(append([]string{"-packets", "4"}, strings.Fields(a)...)...)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("urllcsim %s: error %q, want one line", a, err)
		}
	}
}

func TestAcceptsOnePoint(t *testing.T) {
	for _, a := range []string{"", "-pattern DDSU", "-pattern DM -slot 0.25ms -grantfree -radio pcie -rt", "-version -ues 0"} {
		if _, err := parseArgs(strings.Fields(a)...); err != nil {
			t.Errorf("urllcsim %s: %v", a, err)
		}
	}
	o, err := parseArgs("-pattern", "DDSU")
	if err != nil {
		t.Fatal(err)
	}
	if o.point.Label != "DDSU/0.5ms/gb/usb2" {
		t.Fatalf("point %+v", o.point)
	}
}

// TestScenarioMatchesSweep: the shared flags build the configuration that
// ../testdata/scenario.golden pins, the one urllc-sweep's test pins too.
func TestScenarioMatchesSweep(t *testing.T) {
	o, err := parseArgs("-pattern", "DM", "-slot", "0.25ms", "-grantfree", "-radio", "pcie",
		"-ues", "4", "-seed", "7", "-deadline", "400us")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%+v\n", o.run.Scenario(o.point, o.run.Seed, nil))
	want, err := os.ReadFile("../testdata/scenario.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("scenario\n%s\nwant\n%s", got, want)
	}
}

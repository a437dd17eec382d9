package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// parseArgs parses args as urllc-sweep's command line.
func parseArgs(args ...string) (*options, error) {
	fs := flag.NewFlagSet("urllc-sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// TestUsageErrors feeds parse every usage error urllc-sweep rejects (the
// obs-smoke list): each is one line.
func TestUsageErrors(t *testing.T) {
	for _, a := range []string{
		"-sample-rate 0", "-sample-rate -1", "-sample-rate NaN",
		"-replicas 0", "-packets 0", "-ues 0", "-flight-topk -2", "-parallel -2",
		"-slot 2ms", "-radio wifi", "-grantfree maybe", "-deadline -1us", "-pattern XYZ",
		"-grantfree false,maybe", "-pattern DDDU,XYZ",
	} {
		_, err := parseArgs(append([]string{"-replicas", "1", "-packets", "4"}, strings.Fields(a)...)...)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("urllc-sweep %s: error %q, want one line", a, err)
		}
	}
}

func TestAcceptsGrid(t *testing.T) {
	o, err := parseArgs("-pattern", "DDDU,DDSU", "-grantfree", "false,true")
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, p := range o.grid {
		labels = append(labels, p.Label)
	}
	want := "DDDU/0.5ms/gb/usb2 DDDU/0.5ms/gf/usb2 DDSU/0.5ms/gb/usb2 DDSU/0.5ms/gf/usb2"
	if got := strings.Join(labels, " "); got != want {
		t.Fatalf("grid %s, want %s", got, want)
	}
}

// TestScenarioMatchesUrllcsim: the shared flags build the configuration
// that ../testdata/scenario.golden pins, the one urllcsim's test pins too.
func TestScenarioMatchesUrllcsim(t *testing.T) {
	o, err := parseArgs("-pattern", "DM", "-slot", "0.25ms", "-grantfree", "true", "-radio", "pcie",
		"-ues", "4", "-seed", "7", "-deadline", "400us")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%+v\n", o.run.Scenario(o.grid[0], o.run.Seed, nil))
	want, err := os.ReadFile("../testdata/scenario.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("scenario\n%s\nwant\n%s", got, want)
	}
}

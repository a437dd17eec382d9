// Package runflag is the one flag binder of the two run CLIs, urllcsim (one
// configuration) and urllc-sweep (a grid of them). It declares the run flags
// both take, checks them, crosses the axis flags into grid points, turns a
// point into a urllcsim.ScenarioConfig and sets a run's recorder up from
// them, so the two CLIs read every shared flag the same way. A bad value is
// one stderr line and exit 2 (Fail).
package runflag

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
)

// Flags holds the values of the shared run flags.
type Flags struct {
	// Pattern, Slot and Radio are the comma-separated axes Grid crosses.
	Pattern, Slot, Radio     string
	UEs, Packets, FlightTopK int
	Seed                     uint64
	Deadline                 time.Duration
	SampleRate               float64
	SlotsOut, FlightOut      string
	Version                  bool
}

// Bind declares the shared run flags on fs, with packets as the -packets
// default.
func Bind(fs *flag.FlagSet, packets int) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Pattern, "pattern", "DDDU", "comma-separated TDD patterns: DDDU, DM, MU, DU, mini-slot, FDD, or a custom D/U/S string")
	fs.StringVar(&f.Slot, "slot", "0.5ms", "comma-separated slot durations: 1ms, 0.5ms, 0.25ms, 125us")
	fs.StringVar(&f.Radio, "radio", "usb2", "comma-separated radio front-hauls: usb2, usb3, pcie, none")
	fs.IntVar(&f.UEs, "ues", 1, "UE count: scales processing load (§7), and packets are attributed to the UEs round-robin")
	fs.IntVar(&f.Packets, "packets", packets, "packets per direction (per replica in a sweep)")
	fs.Uint64Var(&f.Seed, "seed", 1, "simulation seed; a sweep derives each replica's seed from it")
	fs.DurationVar(&f.Deadline, "deadline", 500*time.Microsecond, "one-way latency budget every packet is audited against")
	fs.Float64Var(&f.SampleRate, "sample-rate", 1, "deterministic per-packet span sampling rate in (0,1], keyed by packet identity and the run's seed; 1 keeps everything. Outcomes, metrics, deadline audits and flight forensics stay exact at every rate")
	fs.StringVar(&f.SlotsOut, "slots-out", "", "write the per-tick slot-occupancy ledger as JSONL (urllcsim-slots/v1; input for urllc-report) to this file; a sweep merges its replicas' ledgers per grid point")
	fs.StringVar(&f.FlightOut, "flight-out", "", "write tail-forensics flight records (JSONL, one per deadline miss/loss/top-K worst packet, with the reconstructed causal chain) to this file; a sweep merges its replicas' records per grid point")
	fs.IntVar(&f.FlightTopK, "flight-topk", flight.DefaultTopK, "per-direction worst-latency exemplars the flight recorder keeps (per grid point in a sweep)")
	fs.BoolVar(&f.Version, "version", false, "print build and schema versions, then exit")
	return f
}

// Point is one grid configuration, its axis values as the flags name them.
// Label names it pattern/slot/access/radio, with access gb or gf.
type Point struct {
	Label, Pattern, Slot, Radio string
	GrantFree                   bool
}

var (
	slotScales = map[string]urllcsim.SlotScale{
		"1ms": urllcsim.Slot1ms, "0.5ms": urllcsim.Slot0p5ms,
		"0.25ms": urllcsim.Slot0p25ms, "125us": urllcsim.Slot125us,
	}
	radioKinds = map[string]urllcsim.RadioKind{
		"usb2": urllcsim.RadioUSB2, "usb3": urllcsim.RadioUSB3,
		"pcie": urllcsim.RadioPCIe, "none": urllcsim.RadioNone,
	}
	accessTags = map[string]string{"false": "gb", "true": "gf"}
)

// Grid checks every shared flag, then crosses -pattern × -slot × access ×
// -radio into grid points, nested in that order. access is the caller's
// comma-separated UL access modes: false (grant-based), true (grant-free).
// A pattern that builds no grid at one of the slots is an error too, so a
// bad value is reported before any run, on one line naming its flag.
func (f *Flags) Grid(access string) ([]Point, error) {
	switch {
	case !(f.SampleRate > 0 && f.SampleRate <= 1): // also rejects NaN
		return nil, fmt.Errorf("-sample-rate %v outside (0,1]", f.SampleRate)
	case f.UEs < 1:
		return nil, fmt.Errorf("-ues %d: need at least 1", f.UEs)
	case f.Packets < 1:
		return nil, fmt.Errorf("-packets %d: need at least 1", f.Packets)
	case f.Deadline < 0:
		return nil, fmt.Errorf("-deadline %v: must not be negative", f.Deadline)
	case f.FlightTopK < 1:
		return nil, fmt.Errorf("-flight-topk %d: need at least 1", f.FlightTopK)
	}
	var grid []Point
	for _, p := range list(f.Pattern) {
		for _, s := range list(f.Slot) {
			scale, ok := slotScales[s]
			if !ok {
				return nil, fmt.Errorf("unknown -slot %q (1ms | 0.5ms | 0.25ms | 125us)", s)
			}
			if err := urllcsim.Pattern(p).Validate(scale); err != nil {
				return nil, fmt.Errorf("-pattern %s at %s: %w", p, s, err)
			}
			for _, a := range list(access) {
				tag, ok := accessTags[a]
				if !ok {
					return nil, fmt.Errorf("unknown -grantfree %q (false | true)", a)
				}
				for _, r := range list(f.Radio) {
					if _, ok := radioKinds[r]; !ok {
						return nil, fmt.Errorf("unknown -radio %q (usb2 | usb3 | pcie | none)", r)
					}
					grid = append(grid, Point{Label: p + "/" + s + "/" + tag + "/" + r,
						Pattern: p, Slot: s, Radio: r, GrantFree: a == "true"})
				}
			}
		}
	}
	return grid, nil
}

// list splits a comma-separated flag value into its trimmed items.
func list(s string) []string {
	items := strings.Split(s, ",")
	for i := range items {
		items[i] = strings.TrimSpace(items[i])
	}
	return items
}

// Scenario configures a run of p: the shared flags' UE count and deadline,
// the run's seed and its recorder rec.
func (f *Flags) Scenario(p Point, seed uint64, rec *obs.Recorder) urllcsim.ScenarioConfig {
	return urllcsim.ScenarioConfig{
		Pattern:   urllcsim.Pattern(p.Pattern),
		SlotScale: slotScales[p.Slot],
		GrantFree: p.GrantFree,
		Radio:     radioKinds[p.Radio],
		UEs:       f.UEs,
		Seed:      seed,
		Deadline:  f.Deadline,
		Obs:       rec,
	}
}

// Record sets rec up for a run seeded with seed: span sampling below
// -sample-rate 1, the slot ledger with -slots-out and, with withFlight, a
// flight recorder that labels its exemplars with shard. The flight recorder
// taps the recorder's streams ahead of extra; Record returns it, or nil.
//
// Sampling is keyed by packet identity and seed, so the same seed admits the
// same packets at any worker count or serve mode. The taps ride before the
// sampling gate, so the audited tail stays exact; they observe only.
func (f *Flags) Record(rec *obs.Recorder, seed uint64, shard int, withFlight bool, extra ...obs.Tap) *flight.Recorder {
	if f.SampleRate < 1 {
		rec.SetSampling(f.SampleRate, seed)
	}
	if f.SlotsOut != "" {
		rec.EnableSlotLedger()
	}
	var fr *flight.Recorder
	taps := obs.Taps(extra)
	if withFlight {
		fr = flight.New(flight.Config{Deadline: sim.Duration(f.Deadline), TopK: f.FlightTopK, Shard: shard})
		taps = append(obs.Taps{fr}, extra...)
	}
	if len(taps) > 0 {
		rec.SetTap(taps)
	}
	return fr
}

// Fail reports a usage error on one stderr line and exits 2, the flag
// package's own exit code for usage errors.
func Fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

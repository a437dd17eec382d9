// Command urllc-sweep runs a configuration-grid sweep of the full-system
// simulator on a parallel worker pool and emits one merged deadline-audit
// report (internal/obs/analyze) over all replicas of each grid point.
//
// The grid is the cross product of the comma-separated axis flags:
//
//	urllc-sweep -pattern DDDU,DM -grantfree false,true -radio usb2 \
//	            -replicas 8 -packets 50 -parallel 4 -seed 1 > report.md
//
// Every grid point runs -replicas independent replicas — each with its own
// engine, RNG (seeded from the replica's global shard index via
// internal/sweep.Seed) and metrics registry — fanned across -parallel
// workers. Per-replica traces merge in replica order with packet ids
// renumbered (analyze.MergeTraces) and per-replica registries merge exactly
// (counters add, HDR histograms by bucket), so the report is bit-identical
// for any -parallel value: `-parallel 1` is the golden output of
// `-parallel N`. With -slots-out the per-slot occupancy ledgers of all
// replicas of a grid point merge by slot boundary (exact integer sums) into
// one urllcsim-slots/v1 JSONL file under the same invariance contract, and
// -ues spreads packet attribution across logical UEs (labels only) so the
// -summary registries carry per-UE counter and latency families.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
	"urllcsim/internal/version"
)

// point is one grid configuration.
type point struct {
	label     string
	pattern   urllcsim.Pattern
	slot      urllcsim.SlotScale
	grantFree bool
	radio     urllcsim.RadioKind
}

// replicaOut is what one replica returns into the merge.
type replicaOut struct {
	trace  *analyze.Trace
	reg    *obs.Registry
	perf   *prof.Report     // engine self-profile; nil unless -perf
	flight *flight.Set      // promoted tail exemplars; nil unless -flight-out
	slots  []obs.SlotRecord // per-slot occupancy ledger; nil unless -slots-out
}

var slotNames = map[string]urllcsim.SlotScale{
	"1ms": urllcsim.Slot1ms, "0.5ms": urllcsim.Slot0p5ms,
	"0.25ms": urllcsim.Slot0p25ms, "125us": urllcsim.Slot125us,
}

var radioNames = map[string]urllcsim.RadioKind{
	"usb2": urllcsim.RadioUSB2, "usb3": urllcsim.RadioUSB3,
	"pcie": urllcsim.RadioPCIe, "none": urllcsim.RadioNone,
}

func main() {
	patterns := flag.String("pattern", "DDDU", "comma-separated TDD patterns (DDDU, DM, MU, DU, mini-slot, FDD, or a custom D/U/S string)")
	slots := flag.String("slot", "0.5ms", "comma-separated slot durations: 1ms, 0.5ms, 0.25ms, 125us")
	grantfree := flag.String("grantfree", "false", "comma-separated UL access modes: false (grant-based), true (grant-free)")
	radios := flag.String("radio", "usb2", "comma-separated radio front-hauls: usb2, usb3, pcie, none")
	replicas := flag.Int("replicas", 8, "independent replicas per grid point")
	packets := flag.Int("packets", 50, "packets per replica per direction")
	parallel := flag.Int("parallel", 0, "worker-pool width (0 = GOMAXPROCS); results are identical for any value")
	seed := flag.Uint64("seed", 1, "base seed; replica seeds derive from it per shard")
	deadline := flag.Duration("deadline", 500*time.Microsecond, "one-way latency budget to audit against")
	summary := flag.Bool("summary", false, "append the merged metrics-registry summary of each grid point")
	perf := flag.Bool("perf", false, "self-profile every shard's engine and append a sweep-performance section (wall time per shard, events/sec); wall-clock numbers vary run to run, so this section is excluded from the worker-count-invariance contract")
	out := flag.String("out", "", "write the report here instead of stdout")
	flightOut := flag.String("flight-out", "", "write the merged tail-forensics flight records (JSONL) of every grid point to this file; the merge is bit-identical for any -parallel value")
	flightTopK := flag.Int("flight-topk", flight.DefaultTopK, "per-direction worst-latency exemplars kept per grid point after the merge")
	slotsOut := flag.String("slots-out", "", "write the merged per-slot occupancy ledger (JSONL) of every grid point to this file; the merge is bit-identical for any -parallel value")
	ues := flag.Int("ues", 1, "logical UEs packets are attributed to round-robin (labels only; the schedule is unchanged)")
	sampleRate := flag.Float64("sample-rate", 1, "deterministic per-packet span sampling rate in (0,1]; keyed by packet identity and the shard seed, so the merged report is still bit-identical for any -parallel value. Outcome counts and tail quantiles stay exact")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()

	if *showVersion {
		version.Print(os.Stdout, "urllc-sweep", []string{flight.Schema, obs.SlotsSchema}, nil)
		return
	}
	grid, gridErr := buildGrid(*patterns, *slots, *grantfree, *radios)
	var bad string
	switch {
	case gridErr != nil:
		bad = gridErr.Error()
	case *deadline < 0:
		bad = fmt.Sprintf("-deadline %v: must not be negative", *deadline)
	case !(*sampleRate > 0 && *sampleRate <= 1): // also rejects NaN
		bad = fmt.Sprintf("-sample-rate %v outside (0,1]", *sampleRate)
	case *replicas < 1 || *packets < 1:
		bad = "need at least 1 replica and 1 packet"
	case *ues < 1:
		bad = "need at least 1 UE"
	case *flightTopK < 1:
		bad = fmt.Sprintf("-flight-topk %d: need at least 1", *flightTopK)
	case *parallel < 0:
		bad = fmt.Sprintf("-parallel %d: must not be negative (0 = GOMAXPROCS)", *parallel)
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "urllc-sweep:", bad)
		os.Exit(2)
	}

	if err := run(grid, *replicas, *packets, *parallel, *seed, *deadline, *summary, *perf,
		*out, *flightOut, *flightTopK, *slotsOut, *ues, *sampleRate); err != nil {
		fmt.Fprintln(os.Stderr, "urllc-sweep:", err)
		os.Exit(1)
	}
}

func run(grid []point, replicas, packets, parallel int,
	seed uint64, deadline time.Duration, summary, perf bool, out, flightOut string, flightTopK int,
	slotsOut string, ues int, sampleRate float64) error {
	// One job per (point, replica), flattened so a slow grid point cannot
	// leave workers idle while cheap points queue behind it. The replica
	// seed is derived from the job's global shard index: independent of the
	// worker layout by construction.
	runs, err := sweep.Run(parallel, len(grid)*replicas, func(i int) (replicaOut, error) {
		return runReplica(grid[i/replicas], i, sweep.Seed(seed, i), packets, deadline, perf,
			flightOut != "", flightTopK, slotsOut != "", ues, sampleRate)
	})
	if err != nil {
		return err
	}

	var audits []*analyze.Audit
	var summaries strings.Builder
	flights := make([]*flight.Set, 0, len(grid))
	ledgers := make([][]obs.SlotRecord, 0, len(grid))
	for p, pt := range grid {
		shard := runs[p*replicas : (p+1)*replicas]
		traces := make([]*analyze.Trace, len(shard))
		regs := make([]*obs.Registry, len(shard))
		sets := make([]*flight.Set, len(shard))
		slotShards := make([][]obs.SlotRecord, len(shard))
		for i, r := range shard {
			traces[i], regs[i], sets[i], slotShards[i] = r.trace, r.reg, r.flight, r.slots
		}
		audits = append(audits, analyze.Run(analyze.MergeTraces(traces...), pt.label, sim.Duration(deadline)))
		if flightOut != "" {
			// Shard-order merge: exact global top-K, bit-identical for any
			// -parallel (the same contract as the registries and traces).
			flights = append(flights, flight.MergeSets(sim.Duration(deadline), flightTopK, sets...))
		}
		if slotsOut != "" {
			// Boundary-keyed integer sums, output sorted by boundary: exact
			// and bit-identical for any -parallel, like the registries.
			ledgers = append(ledgers, obs.MergeSlotLedgers(slotShards...))
		}
		if summary {
			fmt.Fprintf(&summaries, "\n## Merged registry — %s (%d replicas)\n\n```\n%s```\n",
				pt.label, replicas, sweep.MergeRegistries(regs).Summary())
		}
	}

	if flightOut != "" {
		err := obs.WriteFile(flightOut, func(w io.Writer) error {
			for p, set := range flights {
				if err := flight.WriteJSONL(w, set, grid[p].label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if slotsOut != "" {
		err := obs.WriteFile(slotsOut, func(w io.Writer) error {
			for p, merged := range ledgers {
				if err := obs.WriteSlotsJSONL(w, merged, grid[p].label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := analyze.WriteMarkdown(w, audits); err != nil {
		return err
	}
	if _, err := io.WriteString(w, summaries.String()); err != nil {
		return err
	}
	if perf {
		_, err = io.WriteString(w, perfSection(grid, runs, replicas))
		return err
	}
	return nil
}

// perfSection renders the -perf report: per-shard engine self-profiles and
// per-point aggregates, turning parallel-scaling claims into measured
// events/sec rather than anecdote. Wall-clock numbers here are real
// measurements of this machine on this run — the one report section that is
// deliberately NOT covered by the worker-count-invariance contract.
func perfSection(grid []point, runs []replicaOut, replicas int) string {
	var sb strings.Builder
	sb.WriteString("\n## Sweep performance (-perf)\n\n")
	sb.WriteString("| point | shard | events | wall ms | events/s | sim/wall |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|\n")
	var totEvents uint64
	var totWall int64
	var maxWall int64
	for p, pt := range grid {
		var ptEvents uint64
		var ptWall int64
		for i, r := range runs[p*replicas : (p+1)*replicas] {
			if r.perf == nil {
				continue
			}
			fmt.Fprintf(&sb, "| %s | %d | %d | %.3f | %.0f | %.1f× |\n",
				pt.label, i, r.perf.Events, float64(r.perf.WallNs)/1e6,
				r.perf.EventsPerSec, r.perf.SimWallRatio)
			ptEvents += r.perf.Events
			ptWall += r.perf.WallNs
			if r.perf.WallNs > maxWall {
				maxWall = r.perf.WallNs
			}
		}
		if ptWall > 0 {
			fmt.Fprintf(&sb, "| %s | **all** | %d | %.3f | %.0f | |\n",
				pt.label, ptEvents, float64(ptWall)/1e6,
				float64(ptEvents)/(float64(ptWall)/1e9))
		}
		totEvents += ptEvents
		totWall += ptWall
	}
	if totWall > 0 {
		fmt.Fprintf(&sb, "\n- total: %d engine events in %.3f ms of summed shard wall time (%.0f events/sec sequential-equivalent)\n",
			totEvents, float64(totWall)/1e6, float64(totEvents)/(float64(totWall)/1e9))
		fmt.Fprintf(&sb, "- slowest shard: %.3f ms — the parallel critical path; summed/slowest = %.1f× ideal-speedup ceiling\n",
			float64(maxWall)/1e6, float64(totWall)/float64(maxWall))
	}
	return sb.String()
}

// runReplica simulates one replica: its own scenario (engine, RNG, recorder),
// packets offered uniformly in each direction, and returns the trace and
// registry for the shard-ordered merge.
func runReplica(pt point, shard int, seed uint64, packets int, deadline time.Duration,
	perf bool, withFlight bool, flightTopK int, withSlots bool, ues int, sampleRate float64) (replicaOut, error) {
	rec := obs.NewRecorder()
	if sampleRate < 1 {
		// Deterministic head sampling keyed by (shard seed, packet id): the
		// same packets are admitted at any -parallel value, so the sampled
		// sweep keeps the worker-count-invariance contract. The flight tap
		// rides before the gate, so the audited tail stays exact.
		rec.SetSampling(sampleRate, seed)
	}
	if withSlots {
		rec.EnableSlotLedger()
	}
	// The flight recorder rides the replica's span/edge/outcome streams via
	// the tap; it observes only, so the merged audit is unchanged by it.
	var fr *flight.Recorder
	if withFlight {
		fr = flight.New(flight.Config{
			Deadline: sim.Duration(deadline), TopK: flightTopK, Shard: shard,
		})
		rec.SetTap(fr)
	}
	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:   pt.pattern,
		SlotScale: pt.slot,
		GrantFree: pt.grantFree,
		Radio:     pt.radio,
		Seed:      seed,
		Deadline:  deadline,
		Obs:       rec,
	})
	if err != nil {
		return replicaOut{}, fmt.Errorf("%s: %w", pt.label, err)
	}
	// The self-profiler wraps the recorder's sink and observes only, so the
	// merged audit stays bit-identical whether -perf is on or not.
	var profiler *prof.Profiler
	if perf {
		profiler = prof.Attach(sc.Engine())
	}
	// One packet per direction every 2 ms — comfortably above every
	// pattern's period, so replicas measure latency, not queueing.
	const spacing = 2 * time.Millisecond
	rng := sim.NewRNG(seed ^ 0x5EED)
	for i := 0; i < packets; i++ {
		at := time.Duration(i)*spacing + time.Duration(rng.UniformDuration(0, sim.Duration(spacing)))
		// Round-robin UE attribution is labels-only: the offered schedule,
		// RNG draws and merged audit are identical for any -ues value.
		sc.SendUplinkFrom(i%ues, at, 32)
		sc.SendDownlinkFrom(i%ues, at, 32)
	}
	sc.Run(time.Duration(packets+60) * spacing)
	out := replicaOut{trace: analyze.FromRecorder(rec), reg: rec.Metrics()}
	if fr != nil {
		out.flight = fr.Set()
	}
	if withSlots {
		out.slots = rec.Slots()
	}
	if profiler != nil {
		out.perf = profiler.Finish()
	}
	return out, nil
}

// buildGrid crosses the axis lists into labelled grid points. An unknown
// slot, access mode or radio is a usage error, reported before any run.
func buildGrid(patterns, slots, grantfree, radios string) ([]point, error) {
	var grid []point
	for _, p := range strings.Split(patterns, ",") {
		p = strings.TrimSpace(p)
		for _, sl := range strings.Split(slots, ",") {
			sl = strings.TrimSpace(sl)
			scale, ok := slotNames[sl]
			if !ok {
				return nil, fmt.Errorf("unknown slot %q (want 1ms, 0.5ms, 0.25ms or 125us)", sl)
			}
			for _, gf := range strings.Split(grantfree, ",") {
				gf = strings.TrimSpace(gf)
				if gf != "true" && gf != "false" {
					return nil, fmt.Errorf("unknown grantfree value %q (want true or false)", gf)
				}
				for _, rd := range strings.Split(radios, ",") {
					rd = strings.TrimSpace(rd)
					kind, ok := radioNames[rd]
					if !ok {
						return nil, fmt.Errorf("unknown radio %q (want usb2, usb3, pcie or none)", rd)
					}
					access := "gb"
					if gf == "true" {
						access = "gf"
					}
					grid = append(grid, point{
						label:     fmt.Sprintf("%s/%s/%s/%s", p, sl, access, rd),
						pattern:   urllcsim.Pattern(p),
						slot:      scale,
						grantFree: gf == "true",
						radio:     kind,
					})
				}
			}
		}
	}
	return grid, nil
}

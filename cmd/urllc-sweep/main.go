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
// one urllcsim-slots/v1 JSONL file under the same invariance contract.
// -ues K is K UEs of processing load with packets attributed round-robin,
// as in urllcsim, so the -summary registries carry per-UE families.
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
	"urllcsim/internal/runflag"
	"urllcsim/internal/sim"
	"urllcsim/internal/sweep"
	"urllcsim/internal/version"
)

// options are urllc-sweep's flags: the shared run flags, the grid they
// name, and the sweep's own.
type options struct {
	run                *runflag.Flags
	grid               []runflag.Point
	replicas, parallel int
	summary, perf      bool
	out                string
}

// replicaOut is what one replica returns into the merge.
type replicaOut struct {
	trace  *analyze.Trace
	reg    *obs.Registry
	perf   *prof.Report     // engine self-profile; nil unless -perf
	flight *flight.Set      // promoted tail exemplars; nil unless -flight-out
	slots  []obs.SlotRecord // per-slot occupancy ledger; nil unless -slots-out
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		runflag.Fail(err)
	}
	if o.run.Version {
		version.Print(os.Stdout, "urllc-sweep", []string{flight.Schema, obs.SlotsSchema}, nil)
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "urllc-sweep:", err)
		os.Exit(1)
	}
}

// parse reads urllc-sweep's flags from args into fs, checks them and builds
// the grid. A bad value is a one-line error; with -version nothing is
// checked.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{run: runflag.Bind(fs, 50)}
	grantfree := fs.String("grantfree", "false", "comma-separated UL access modes: false (grant-based), true (grant-free)")
	fs.IntVar(&o.replicas, "replicas", 8, "independent replicas per grid point")
	fs.IntVar(&o.parallel, "parallel", 0, "worker-pool width (0 = GOMAXPROCS); results are identical for any value")
	fs.BoolVar(&o.summary, "summary", false, "append the merged metrics-registry summary of each grid point")
	fs.BoolVar(&o.perf, "perf", false, "self-profile every shard's engine and append a sweep-performance section (wall time per shard, events/sec); wall-clock numbers vary run to run, so this section is excluded from the worker-count-invariance contract")
	fs.StringVar(&o.out, "out", "", "write the report here instead of stdout")
	if err := fs.Parse(args); err != nil || o.run.Version {
		return o, err
	}
	var err error
	o.grid, err = o.run.Grid(*grantfree)
	switch {
	case err != nil:
	case o.replicas < 1:
		err = fmt.Errorf("-replicas %d: need at least 1", o.replicas)
	case o.parallel < 0:
		err = fmt.Errorf("-parallel %d: must not be negative (0 = GOMAXPROCS)", o.parallel)
	}
	return o, err
}

func run(o *options) error {
	grid, replicas, deadline := o.grid, o.replicas, sim.Duration(o.run.Deadline)
	// One job per (point, replica), flattened so a slow grid point cannot
	// leave workers idle while cheap points queue behind it. The replica
	// seed is derived from the job's global shard index: independent of the
	// worker layout by construction.
	runs, err := sweep.Run(o.parallel, len(grid)*replicas, func(i int) (replicaOut, error) {
		return runReplica(o, grid[i/replicas], i)
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
		audits = append(audits, analyze.Run(analyze.MergeTraces(traces...), pt.Label, deadline))
		if o.run.FlightOut != "" {
			// Shard-order merge: exact global top-K, bit-identical for any
			// -parallel (the same contract as the registries and traces).
			flights = append(flights, flight.MergeSets(deadline, o.run.FlightTopK, sets...))
		}
		if o.run.SlotsOut != "" {
			// Boundary-keyed integer sums, output sorted by boundary: exact
			// and bit-identical for any -parallel, like the registries.
			ledgers = append(ledgers, obs.MergeSlotLedgers(slotShards...))
		}
		if o.summary {
			fmt.Fprintf(&summaries, "\n## Merged registry — %s (%d replicas)\n\n```\n%s```\n",
				pt.Label, replicas, sweep.MergeRegistries(regs).Summary())
		}
	}

	if o.run.FlightOut != "" {
		err := obs.WriteFile(o.run.FlightOut, func(w io.Writer) error {
			for p, set := range flights {
				if err := flight.WriteJSONL(w, set, grid[p].Label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	if o.run.SlotsOut != "" {
		err := obs.WriteFile(o.run.SlotsOut, func(w io.Writer) error {
			for p, merged := range ledgers {
				if err := obs.WriteSlotsJSONL(w, merged, grid[p].Label); err != nil {
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
	if o.out != "" {
		f, err := os.Create(o.out)
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
	if o.perf {
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
func perfSection(grid []runflag.Point, runs []replicaOut, replicas int) string {
	var sb strings.Builder
	sb.WriteString("\n## Sweep performance (-perf)\n\n")
	sb.WriteString("| point | shard | events | wall ms | events/s | sim/wall |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|\n")
	var totEvents uint64
	var totWall, maxWall int64
	for p, pt := range grid {
		var ptEvents uint64
		var ptWall int64
		for i, r := range runs[p*replicas : (p+1)*replicas] {
			if r.perf == nil {
				continue
			}
			fmt.Fprintf(&sb, "| %s | %d | %d | %.3f | %.0f | %.1f× |\n",
				pt.Label, i, r.perf.Events, float64(r.perf.WallNs)/1e6,
				r.perf.EventsPerSec, r.perf.SimWallRatio)
			ptEvents += r.perf.Events
			ptWall += r.perf.WallNs
			if r.perf.WallNs > maxWall {
				maxWall = r.perf.WallNs
			}
		}
		if ptWall > 0 {
			fmt.Fprintf(&sb, "| %s | **all** | %d | %.3f | %.0f | |\n",
				pt.Label, ptEvents, float64(ptWall)/1e6,
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

// runReplica simulates replica shard of grid point pt: its own scenario
// (engine, RNG, recorder), packets offered uniformly in each direction, and
// returns the trace and registry for the shard-ordered merge.
func runReplica(o *options, pt runflag.Point, shard int) (replicaOut, error) {
	seed := sweep.Seed(o.run.Seed, shard)
	rec := obs.NewRecorder()
	fr := o.run.Record(rec, seed, shard, o.run.FlightOut != "")
	sc, err := urllcsim.NewScenario(o.run.Scenario(pt, seed, rec))
	if err != nil {
		return replicaOut{}, fmt.Errorf("%s: %w", pt.Label, err)
	}
	// The self-profiler wraps the recorder's sink and observes only, so the
	// merged audit stays bit-identical whether -perf is on or not.
	var profiler *prof.Profiler
	if o.perf {
		profiler = prof.Attach(sc.Engine())
	}
	// One packet per direction every 2 ms — comfortably above every
	// pattern's period, so replicas measure latency, not queueing.
	const spacing = 2 * time.Millisecond
	rng := sim.NewRNG(seed ^ 0x5EED)
	for i := 0; i < o.run.Packets; i++ {
		at := time.Duration(i)*spacing + time.Duration(rng.UniformDuration(0, sim.Duration(spacing)))
		// Round-robin UE attribution across the -ues population, which also
		// scales processing load (ScenarioConfig.UEs).
		sc.SendUplinkFrom(i%o.run.UEs, at, 32)
		sc.SendDownlinkFrom(i%o.run.UEs, at, 32)
	}
	sc.Run(time.Duration(o.run.Packets+60) * spacing)
	out := replicaOut{trace: analyze.FromRecorder(rec), reg: rec.Metrics(), slots: rec.Slots()}
	if fr != nil {
		out.flight = fr.Set()
	}
	if profiler != nil {
		out.perf = profiler.Finish()
	}
	return out, nil
}

// Command urllcsim runs one configurable full-stack scenario and reports
// the latency distribution, layer statistics and reliability, or, with
// -journey, the Fig. 3-style journey of a single packet through the stack.
//
//	urllcsim -pattern DDDU -slot 0.5ms -radio usb2 -packets 500 -dir both
//	urllcsim -pattern DM -slot 0.25ms -grantfree -radio pcie -rt
//	urllcsim -journey ul                   # one grant-based UL ping on the §7 testbed
//	urllcsim -journey dl -trace-out t.json # DL journey plus its Chrome trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/runflag"
	"urllcsim/internal/sim"
	"urllcsim/internal/version"
)

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		runflag.Fail(err)
	}
	if o.run.Version {
		version.Print(os.Stdout, "urllcsim",
			[]string{obs.TraceSchema, obs.SlotsSchema, analyze.KPISchema,
				flight.Schema, flight.AnomalySchema, prof.ReportSchema}, nil)
		return
	}
	pt := o.point

	// Observability is opt-in: the recorder exists only when some output
	// needs it, so the default run costs nothing extra. A journey is the
	// packet's span stream, so -journey always needs it.
	wantWatchdog := o.wdMissRate > 0 || o.wdP99 > 0 || o.anomalyOut != ""
	wantFlight := o.run.FlightOut != "" || o.flightTraceOut != ""
	var rec *obs.Recorder
	if o.journey != "" || o.traceOut != "" || o.metricsOut != "" || o.snapshotsOut != "" || o.jsonlOut != "" ||
		o.serve != "" || o.run.SlotsOut != "" || o.kpiOut != "" || wantFlight || wantWatchdog {
		rec = obs.NewRecorder()
	}
	// Only the journey and the full-trace exports need retained spans; the
	// KPI pass needs outcomes but not spans. Everything else keeps the
	// recorder's memory bounded by the ring, not the run length.
	keepSpans := o.journey != "" || o.traceOut != "" || o.jsonlOut != ""
	rec.SetRetention(keepSpans, keepSpans || o.kpiOut != "")

	// Taps ride the span/outcome/edge streams without retaining them.
	var watchdog *flight.Watchdog
	var extra []obs.Tap
	if wantWatchdog {
		wcfg := flight.WatchdogConfig{
			Window: o.wdWindow, MaxMissRate: o.wdMissRate,
			MaxP99: sim.Duration(o.wdP99), Deadline: sim.Duration(o.run.Deadline), Rec: rec,
		}
		if o.anomalyOut != "" {
			anomalyFile, err := os.Create(o.anomalyOut)
			exitOn(err)
			defer anomalyFile.Close()
			wcfg.Out = anomalyFile
		}
		watchdog = flight.NewWatchdog(wcfg)
		extra = append(extra, watchdog)
	}
	flightRec := o.run.Record(rec, o.run.Seed, 0, wantFlight, extra...)

	// The telemetry server must attach before the run so the registry lock
	// is installed ahead of any concurrent scrape.
	var live *obs.LiveServer
	if o.serve != "" {
		live, err = obs.Serve(o.serve, rec)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics, /debug/vars, /debug/pprof)\n", live.Addr)
	}

	cfg := o.run.Scenario(pt, o.run.Seed, rec)
	cfg.RTKernel, cfg.SNRdB = o.rt, o.snr
	sc, err := urllcsim.NewScenario(cfg)
	exitOn(err)

	// The self-profiler mounts as the engine's sink. It observes only: the
	// scenario output is byte-identical with and without it.
	var profiler *prof.Profiler
	if o.profOut != "" {
		profiler = prof.Attach(sc.Engine())
		// Meter the recorder so the profile carries a measured observer-tax
		// line (wall inside obs.*, records handled, retained bytes).
		profiler.MeterObs(rec)
	}

	// When only the JSONL export needs spans, stream them to the file during
	// the run: the recorder holds at most one block of spans instead of a
	// log growing with the run, and the finished file is byte-identical to
	// the post-run WriteJSONL form. The Chrome trace and the journey table
	// read the spans after the run, so either keeps the whole log.
	var jsonlStream *obs.JSONLStream
	var jsonlFile *os.File
	if o.jsonlOut != "" && o.traceOut == "" && o.journey == "" {
		jsonlFile, err = os.Create(o.jsonlOut)
		exitOn(err)
		jsonlStream, err = obs.StreamJSONL(jsonlFile, rec)
		exitOn(err)
	}

	var results []urllcsim.PacketResult
	switch o.journey {
	case "ul":
		sc.SendUplink(journeyAt, o.bytes)
		results = sc.Run(100 * time.Millisecond)
	case "dl":
		sc.SendDownlink(journeyAt, o.bytes)
		results = sc.Run(100 * time.Millisecond)
	default:
		period := 2 * time.Millisecond
		for i := 0; i < o.run.Packets; i++ {
			at := time.Duration(i) * period
			// Round-robin attribution across the -ues population. Attribution
			// is label-only (it changes no scheduling or channel decision), so
			// the stdout report is byte-identical with any spread.
			ue := i % o.run.UEs
			if o.dir == "ul" || o.dir == "both" {
				sc.SendUplinkFrom(ue, at+137*time.Microsecond, o.bytes)
			}
			if o.dir == "dl" || o.dir == "both" {
				sc.SendDownlinkFrom(ue, at+731*time.Microsecond, o.bytes)
			}
		}
		results = sc.Run(time.Duration(o.run.Packets+50) * period)
	}

	if jsonlStream != nil {
		exitOn(jsonlStream.Close())
		exitOn(jsonlFile.Close())
		o.jsonlOut = "" // written: the batch export below skips it
	}

	if profiler != nil {
		rep := profiler.Finish()
		// Publish before the exports below so -metrics-out and -serve carry
		// the profiler's registry view alongside the simulation's.
		rep.Publish(rec)
		exitOn(obs.WriteFile(o.profOut, rep.WriteJSONL))
		fmt.Fprint(os.Stderr, rep.MarkdownTable())
	}

	var flightSet *flight.Set
	if flightRec != nil {
		flightSet = flightRec.Set()
		st := flightRec.Stats()
		fmt.Fprintf(os.Stderr, "flight: %d outcomes resolved, %d exemplars promoted (ring high-water %d packets / %d chain entries)\n",
			st.Resolved, st.Promoted, st.MaxLiveTracked, st.MaxLiveEntries)
	}
	flightLabel := fmt.Sprintf("%s/%s/%s", pt.Pattern, pt.Slot, pt.Radio)

	exports := []struct {
		path  string
		write func(io.Writer) error
	}{
		{o.traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, rec) }},
		{o.metricsOut, func(w io.Writer) error { return obs.WriteMetricsCSV(w, rec.Metrics()) }},
		{o.snapshotsOut, func(w io.Writer) error { return obs.WriteSnapshotsCSV(w, rec.Metrics()) }},
		{o.jsonlOut, func(w io.Writer) error { return obs.WriteJSONL(w, rec) }},
		{o.run.SlotsOut, func(w io.Writer) error { return obs.WriteSlotsJSONL(w, rec.Slots(), flightLabel) }},
		{o.kpiOut, func(w io.Writer) error {
			rep := analyze.ComputeKPI(analyze.FromRecorder(rec), flightLabel)
			return analyze.WriteKPIJSONL(w, rep)
		}},
		{o.run.FlightOut, func(w io.Writer) error {
			if err := flight.WriteJSONL(w, flightSet, flightLabel); err != nil {
				return err
			}
			if watchdog == nil {
				return nil
			}
			return flight.WriteAnomalies(w, watchdog.Anomalies())
		}},
		{o.flightTraceOut, func(w io.Writer) error { return flight.WriteChromeTrace(w, flightSet) }},
	}
	for _, ex := range exports {
		if ex.path != "" {
			exitOn(obs.WriteFile(ex.path, ex.write))
		}
	}

	if watchdog != nil {
		exitOn(watchdog.Err())
		fmt.Fprintf(os.Stderr, "watchdog: %d anomaly event(s)\n", len(watchdog.Anomalies()))
	}

	if o.journey != "" {
		access := "grant-based"
		if pt.GrantFree {
			access = "grant-free"
		}
		setup := fmt.Sprintf("%s, %s @ %s slots, %s", access, pt.Pattern, pt.Slot, journeyRadio[pt.Radio])
		exitOn(printJourney(sc, results, setup))
	} else {
		fmt.Printf("scenario: %s slot=%s grantfree=%v radio=%s rt=%v ues=%d\n",
			pt.Pattern, pt.Slot, pt.GrantFree, pt.Radio, o.rt, o.run.UEs)
		printSummary(sc, results, o.run.Deadline)
	}

	// With -serve, stay up after the run so the final counters and
	// histograms can still be scraped and profiled; ^C exits.
	if live != nil {
		if watchdog != nil {
			fmt.Fprintf(os.Stderr, "watchdog gauges live under watchdog.* on /metrics\n")
		}
		fmt.Fprintf(os.Stderr, "run finished; still serving on http://%s — interrupt to exit\n", live.Addr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		live.Close()
	}
}

// options are urllcsim's flags: the shared run flags, the one grid point
// they name, and urllcsim's own.
type options struct {
	run             *runflag.Flags
	point           runflag.Point
	grantFree, rt   bool
	dir, journey    string
	bytes, wdWindow int
	snr, wdMissRate float64
	wdP99           time.Duration
	// The output paths (and -serve's address) that only urllcsim writes.
	traceOut, metricsOut, snapshotsOut, jsonlOut, kpiOut string
	serve, profOut, flightTraceOut, anomalyOut           string
}

// parse reads urllcsim's flags from args into fs and checks them. A bad
// value is a one-line error; with -version nothing is checked.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{run: runflag.Bind(fs, 300)}
	fs.BoolVar(&o.grantFree, "grantfree", false, "use configured grants instead of SR/grant")
	fs.BoolVar(&o.rt, "rt", false, "real-time kernel jitter profile")
	fs.StringVar(&o.dir, "dir", "both", "ul | dl | both")
	fs.IntVar(&o.bytes, "bytes", 32, "payload bytes")
	fs.Float64Var(&o.snr, "snr", 25, "channel SNR (dB)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the metrics registry summary as CSV to this file")
	fs.StringVar(&o.snapshotsOut, "snapshots-out", "", "write per-slot counter/gauge snapshots as CSV to this file")
	fs.StringVar(&o.jsonlOut, "jsonl-out", "", "write the span/outcome trace as JSONL to this file (input for urllc-report)")
	fs.StringVar(&o.kpiOut, "kpi-out", "", "write per-UE KPIs (AoI, fairness, reliability CCDF) as JSONL (urllcsim-kpi/v1; input for urllc-report) to this file")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :9090): /metrics Prometheus text, /debug/vars expvar, /debug/pprof; keeps serving after the run until interrupted")
	fs.StringVar(&o.profOut, "prof-out", "", "self-profile the engine and write the JSONL 'profile' record here; the top-event-types table goes to stderr (stdout stays byte-identical)")
	fs.StringVar(&o.flightTraceOut, "flight-trace-out", "", "write a focused Chrome trace of only the promoted flight exemplars to this file")
	fs.Float64Var(&o.wdMissRate, "watchdog-missrate", 0, "fire a watchdog anomaly when a window's miss rate exceeds this fraction (0 = off)")
	fs.DurationVar(&o.wdP99, "watchdog-p99", 0, "fire a watchdog anomaly when a window's p99 latency exceeds this (0 = off)")
	fs.IntVar(&o.wdWindow, "watchdog-window", flight.DefaultWindow, "packet outcomes per watchdog evaluation window")
	fs.StringVar(&o.anomalyOut, "anomaly-out", "", "stream watchdog 'anomaly' JSONL events to this file as they fire")
	fs.StringVar(&o.journey, "journey", "", "ul | dl: offer one packet at 337µs in that direction (100 ms horizon) and print its Fig. 3 journey instead of the summary; -packets and -dir are not used")
	if err := fs.Parse(args); err != nil || o.run.Version {
		return o, err
	}
	grid, err := o.run.Grid(strconv.FormatBool(o.grantFree))
	switch {
	case err != nil:
	case len(grid) != 1:
		err = fmt.Errorf("-pattern %s -slot %s -radio %s: %d grid points; urllcsim runs one (urllc-sweep runs grids)",
			o.run.Pattern, o.run.Slot, o.run.Radio, len(grid))
	case o.bytes < 1:
		err = fmt.Errorf("-bytes %d: need at least 1", o.bytes)
	case math.IsNaN(o.snr) || math.IsInf(o.snr, 0):
		err = fmt.Errorf("-snr %v: need a finite dB value", o.snr)
	case o.dir != "ul" && o.dir != "dl" && o.dir != "both":
		err = fmt.Errorf("unknown -dir %q (ul | dl | both)", o.dir)
	case o.journey != "" && o.journey != "ul" && o.journey != "dl":
		err = fmt.Errorf("unknown -journey %q (ul | dl)", o.journey)
	case o.wdWindow < 1:
		err = fmt.Errorf("-watchdog-window %d: need at least 1", o.wdWindow)
	case !(o.wdMissRate >= 0 && o.wdMissRate <= 1): // also rejects NaN
		err = fmt.Errorf("-watchdog-missrate %v outside [0,1]", o.wdMissRate)
	case o.wdP99 < 0:
		err = fmt.Errorf("-watchdog-p99 %v: must not be negative", o.wdP99)
	default:
		o.point = grid[0]
	}
	return o, err
}

// journeyRadio names each -radio as the journey header does.
var journeyRadio = map[string]string{
	"usb2": "USB2 B210", "usb3": "USB3 B210", "pcie": "PCIe SDR", "none": "no radio head",
}

// journeyAt is the -journey packet's arrival time within the TDD pattern.
const journeyAt = 337 * time.Microsecond

// printJourney prints the -journey packet's Fig. 3 breakdown: a header
// naming the setup, its outcome, the per-step table and the per-source shares.
func printJourney(sc *urllcsim.Scenario, results []urllcsim.PacketResult, setup string) error {
	if len(results) == 0 {
		return errors.New("packet did not resolve within the horizon")
	}
	r := results[0]
	dirName := "downlink"
	if r.Uplink {
		dirName = "uplink"
	}
	fmt.Printf("journey of a %s packet (%s)\n", dirName, setup)
	fmt.Printf("arrival %v, delivered=%v, one-way latency %v, attempts %d\n\n",
		journeyAt, r.Delivered, r.Latency.Round(time.Microsecond), r.Attempts)
	journey, err := sc.Journey(r.ID)
	if err != nil {
		return err
	}
	fmt.Print(journey)
	fmt.Printf("\nshares: protocol %.0f%%, processing %.0f%%, radio %.0f%%\n",
		100*r.ProtocolShare(), 100*r.ProcessingShare(), 100*r.RadioShare())
	return nil
}

// printSummary prints the per-direction latency distribution against the
// deadline, the radio/PHY loss counters and the per-layer processing stats.
func printSummary(sc *urllcsim.Scenario, results []urllcsim.PacketResult, deadline time.Duration) {
	report := func(uplink bool, label string) {
		var lats []time.Duration
		lost := 0
		for _, r := range results {
			if r.Uplink != uplink {
				continue
			}
			if !r.Delivered {
				lost++
				continue
			}
			lats = append(lats, r.Latency)
		}
		if len(lats) == 0 && lost == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		met := 0
		for _, l := range lats {
			sum += l
			if l <= deadline {
				met++
			}
		}
		fmt.Printf("%s: n=%d lost=%d", label, len(lats), lost)
		if len(lats) > 0 {
			fmt.Printf(" mean=%v p50=%v p99=%v within-%v=%.2f%%",
				(sum / time.Duration(len(lats))).Round(time.Microsecond),
				lats[len(lats)/2].Round(time.Microsecond),
				lats[len(lats)*99/100].Round(time.Microsecond),
				deadline, 100*float64(met)/float64(len(lats)+lost))
		}
		fmt.Println()
	}
	report(true, "UL")
	report(false, "DL")
	fmt.Printf("radio misses: %d, PHY losses: %d\n", sc.RadioMisses(), sc.PHYLosses())
	for _, l := range []string{"SDAP", "PDCP", "RLC", "RLC-q", "MAC", "PHY"} {
		if mean, std, n, err := sc.LayerStat(l); err == nil && n > 0 {
			fmt.Printf("  %-6s mean %8.2fµs std %8.2fµs (n=%d)\n", l, mean, std, n)
		}
	}
}

// exitOn reports a failed run step on stderr and exits 1; nil is a no-op.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

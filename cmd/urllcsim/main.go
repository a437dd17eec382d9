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
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/sim"
	"urllcsim/internal/version"
)

func main() {
	pattern := flag.String("pattern", "DDDU", "DDDU | DM | MU | DU | mini-slot | FDD, or a custom D/U/S string")
	slot := flag.String("slot", "0.5ms", "slot duration: 1ms | 0.5ms | 0.25ms | 125us")
	grantFree := flag.Bool("grantfree", false, "use configured grants instead of SR/grant")
	radioKind := flag.String("radio", "usb2", "usb2 | usb3 | pcie | none")
	rt := flag.Bool("rt", false, "real-time kernel jitter profile")
	packets := flag.Int("packets", 300, "packets per direction")
	dir := flag.String("dir", "both", "ul | dl | both")
	bytes := flag.Int("bytes", 32, "payload bytes")
	ues := flag.Int("ues", 1, "UE count (processing load)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	snr := flag.Float64("snr", 25, "channel SNR (dB)")
	deadline := flag.Duration("deadline", 500*time.Microsecond, "reliability deadline")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry summary as CSV to this file")
	snapshotsOut := flag.String("snapshots-out", "", "write per-slot counter/gauge snapshots as CSV to this file")
	jsonlOut := flag.String("jsonl-out", "", "write the span/outcome trace as JSONL to this file (input for urllc-report)")
	sampleRate := flag.Float64("sample-rate", 1, "deterministic per-packet span sampling rate in (0,1]; 1 keeps everything. Outcomes, metrics, deadline audits and flight forensics stay exact at every rate")
	slotsOut := flag.String("slots-out", "", "write the per-tick slot-occupancy ledger as JSONL (urllcsim-slots/v1; input for urllc-report) to this file")
	kpiOut := flag.String("kpi-out", "", "write per-UE KPIs (AoI, fairness, reliability CCDF) as JSONL (urllcsim-kpi/v1; input for urllc-report) to this file")
	serve := flag.String("serve", "", "serve live telemetry on this address (e.g. :9090): /metrics Prometheus text, /debug/vars expvar, /debug/pprof; keeps serving after the run until interrupted")
	profOut := flag.String("prof-out", "", "self-profile the engine and write the JSONL 'profile' record here; the top-event-types table goes to stderr (stdout stays byte-identical)")
	flightOut := flag.String("flight-out", "", "write tail-forensics flight records (JSONL, one per deadline miss/loss/top-K worst packet, with the reconstructed causal chain) to this file")
	flightTopK := flag.Int("flight-topk", flight.DefaultTopK, "per-direction worst-latency exemplars the flight recorder keeps")
	flightTraceOut := flag.String("flight-trace-out", "", "write a focused Chrome trace of only the promoted flight exemplars to this file")
	wdMissRate := flag.Float64("watchdog-missrate", 0, "fire a watchdog anomaly when a window's miss rate exceeds this fraction (0 = off)")
	wdP99 := flag.Duration("watchdog-p99", 0, "fire a watchdog anomaly when a window's p99 latency exceeds this (0 = off)")
	wdWindow := flag.Int("watchdog-window", flight.DefaultWindow, "packet outcomes per watchdog evaluation window")
	anomalyOut := flag.String("anomaly-out", "", "stream watchdog 'anomaly' JSONL events to this file as they fire")
	journey := flag.String("journey", "", "ul | dl: offer one packet at 337µs in that direction (100 ms horizon) and print its Fig. 3 journey instead of the summary; -packets and -dir are not used")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()

	if *showVersion {
		version.Print(os.Stdout, "urllcsim",
			[]string{obs.TraceSchema, obs.SlotsSchema, analyze.KPISchema,
				flight.Schema, flight.AnomalySchema, prof.ReportSchema}, nil)
		return
	}

	switch {
	case !(*sampleRate > 0 && *sampleRate <= 1): // also rejects NaN
		usageErr("-sample-rate %v outside (0,1]", *sampleRate)
	case *ues < 1:
		usageErr("-ues %d: need at least 1", *ues)
	case *packets < 1:
		usageErr("-packets %d: need at least 1", *packets)
	case *bytes < 1:
		usageErr("-bytes %d: need at least 1", *bytes)
	case *deadline < 0:
		usageErr("-deadline %v: must not be negative", *deadline)
	case math.IsNaN(*snr) || math.IsInf(*snr, 0):
		usageErr("-snr %v: need a finite dB value", *snr)
	case *dir != "ul" && *dir != "dl" && *dir != "both":
		usageErr("unknown -dir %q (ul | dl | both)", *dir)
	case *journey != "" && *journey != "ul" && *journey != "dl":
		usageErr("unknown -journey %q (ul | dl)", *journey)
	case *flightTopK < 1:
		usageErr("-flight-topk %d: need at least 1", *flightTopK)
	case *wdWindow < 1:
		usageErr("-watchdog-window %d: need at least 1", *wdWindow)
	case !(*wdMissRate >= 0 && *wdMissRate <= 1): // also rejects NaN
		usageErr("-watchdog-missrate %v outside [0,1]", *wdMissRate)
	case *wdP99 < 0:
		usageErr("-watchdog-p99 %v: must not be negative", *wdP99)
	}
	scales := map[string]urllcsim.SlotScale{
		"1ms": urllcsim.Slot1ms, "0.5ms": urllcsim.Slot0p5ms,
		"0.25ms": urllcsim.Slot0p25ms, "125us": urllcsim.Slot125us,
	}
	scale, ok := scales[*slot]
	if !ok {
		usageErr("unknown slot %q", *slot)
	}
	if err := urllcsim.Pattern(*pattern).Validate(scale); err != nil {
		usageErr("-pattern %s at %s: %v", *pattern, *slot, err)
	}
	radios := map[string]struct {
		kind urllcsim.RadioKind
		name string // as the journey header names it
	}{
		"usb2": {urllcsim.RadioUSB2, "USB2 B210"}, "usb3": {urllcsim.RadioUSB3, "USB3 B210"},
		"pcie": {urllcsim.RadioPCIe, "PCIe SDR"}, "none": {urllcsim.RadioNone, "no radio head"},
	}
	rk, ok := radios[*radioKind]
	if !ok {
		usageErr("unknown radio %q", *radioKind)
	}

	// Observability is opt-in: the recorder exists only when some output
	// needs it, so the default run costs nothing extra. A journey is the
	// packet's span stream, so -journey always needs it.
	wantWatchdog := *wdMissRate > 0 || *wdP99 > 0 || *anomalyOut != ""
	wantFlight := *flightOut != "" || *flightTraceOut != ""
	var rec *obs.Recorder
	if *journey != "" || *traceOut != "" || *metricsOut != "" || *snapshotsOut != "" || *jsonlOut != "" ||
		*serve != "" || *slotsOut != "" || *kpiOut != "" || wantFlight || wantWatchdog {
		rec = obs.NewRecorder()
	}
	// Only the journey and the full-trace exports need retained spans; the
	// KPI pass needs outcomes but not spans. Everything else keeps the
	// recorder's memory bounded by the ring, not the run length.
	keepSpans := *journey != "" || *traceOut != "" || *jsonlOut != ""
	keepOutcomes := keepSpans || *kpiOut != ""
	rec.SetRetention(keepSpans, keepOutcomes)
	if *sampleRate < 1 {
		// Deterministic head sampling keyed by packet identity: the same
		// seed admits the same packets at any worker count or serve mode.
		// The flight tap sees the full stream (it rides before the gate),
		// so the audited tail stays exact.
		rec.SetSampling(*sampleRate, *seed)
	}
	if *slotsOut != "" {
		rec.EnableSlotLedger()
	}

	// Taps ride the span/outcome/edge streams without retaining them.
	var taps obs.Taps
	var flightRec *flight.Recorder
	if wantFlight {
		flightRec = flight.New(flight.Config{Deadline: sim.Duration(*deadline), TopK: *flightTopK})
		taps = append(taps, flightRec)
	}
	var watchdog *flight.Watchdog
	var anomalyFile *os.File
	if wantWatchdog {
		wcfg := flight.WatchdogConfig{
			Window: *wdWindow, MaxMissRate: *wdMissRate,
			MaxP99: sim.Duration(*wdP99), Deadline: sim.Duration(*deadline), Rec: rec,
		}
		if *anomalyOut != "" {
			var err error
			if anomalyFile, err = os.Create(*anomalyOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer anomalyFile.Close()
			wcfg.Out = anomalyFile
		}
		watchdog = flight.NewWatchdog(wcfg)
		taps = append(taps, watchdog)
	}
	switch len(taps) {
	case 0:
	case 1:
		rec.SetTap(taps[0])
	default:
		rec.SetTap(taps)
	}

	// The telemetry server must attach before the run so the registry lock
	// is installed ahead of any concurrent scrape.
	var live *obs.LiveServer
	if *serve != "" {
		var err error
		live, err = obs.Serve(*serve, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics, /debug/vars, /debug/pprof)\n", live.Addr)
	}

	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:   urllcsim.Pattern(*pattern),
		SlotScale: scale,
		GrantFree: *grantFree,
		Radio:     rk.kind,
		RTKernel:  *rt,
		SNRdB:     *snr,
		UEs:       *ues,
		Seed:      *seed,
		Deadline:  *deadline,
		Obs:       rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The self-profiler mounts as the engine's sink. It observes only: the
	// scenario output is byte-identical with and without it.
	var profiler *prof.Profiler
	if *profOut != "" {
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
	if *jsonlOut != "" && *traceOut == "" && *journey == "" {
		jsonlFile, err = os.Create(*jsonlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		jsonlStream, err = obs.StreamJSONL(jsonlFile, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var results []urllcsim.PacketResult
	switch *journey {
	case "ul":
		sc.SendUplink(journeyAt, *bytes)
		results = sc.Run(100 * time.Millisecond)
	case "dl":
		sc.SendDownlink(journeyAt, *bytes)
		results = sc.Run(100 * time.Millisecond)
	default:
		period := 2 * time.Millisecond
		for i := 0; i < *packets; i++ {
			at := time.Duration(i) * period
			// Round-robin attribution across the -ues population. Attribution
			// is label-only (it changes no scheduling or channel decision), so
			// the stdout report is byte-identical with any spread.
			ue := i % *ues
			if *dir == "ul" || *dir == "both" {
				sc.SendUplinkFrom(ue, at+137*time.Microsecond, *bytes)
			}
			if *dir == "dl" || *dir == "both" {
				sc.SendDownlinkFrom(ue, at+731*time.Microsecond, *bytes)
			}
		}
		results = sc.Run(time.Duration(*packets+50) * period)
	}

	if jsonlStream != nil {
		if err := jsonlStream.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := jsonlFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if profiler != nil {
		rep := profiler.Finish()
		// Publish before the exports below so -metrics-out and -serve carry
		// the profiler's registry view alongside the simulation's.
		rep.Publish(rec)
		if err := obs.WriteFile(*profOut, rep.WriteJSONL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, rep.MarkdownTable())
	}

	var flightSet *flight.Set
	if flightRec != nil {
		flightSet = flightRec.Set()
		st := flightRec.Stats()
		fmt.Fprintf(os.Stderr, "flight: %d outcomes resolved, %d exemplars promoted (ring high-water %d packets / %d chain entries)\n",
			st.Resolved, st.Promoted, st.MaxLiveTracked, st.MaxLiveEntries)
	}
	flightLabel := fmt.Sprintf("%s/%s/%s", *pattern, *slot, *radioKind)

	exports := []struct {
		path  string
		write func(io.Writer) error
	}{
		{*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, rec) }},
		{*metricsOut, func(w io.Writer) error { return obs.WriteMetricsCSV(w, rec.Metrics()) }},
		{*snapshotsOut, func(w io.Writer) error { return obs.WriteSnapshotsCSV(w, rec.Metrics()) }},
		{jsonlBatchPath(*jsonlOut, jsonlStream != nil), func(w io.Writer) error { return obs.WriteJSONL(w, rec) }},
		{*slotsOut, func(w io.Writer) error { return obs.WriteSlotsJSONL(w, rec.Slots(), flightLabel) }},
		{*kpiOut, func(w io.Writer) error {
			rep := analyze.ComputeKPI(analyze.FromRecorder(rec), flightLabel)
			return analyze.WriteKPIJSONL(w, rep)
		}},
		{*flightOut, func(w io.Writer) error {
			if err := flight.WriteJSONL(w, flightSet, flightLabel); err != nil {
				return err
			}
			if watchdog == nil {
				return nil
			}
			return flight.WriteAnomalies(w, watchdog.Anomalies())
		}},
		{*flightTraceOut, func(w io.Writer) error { return flight.WriteChromeTrace(w, flightSet) }},
	}
	for _, ex := range exports {
		if ex.path == "" {
			continue
		}
		if err := obs.WriteFile(ex.path, ex.write); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if watchdog != nil {
		if err := watchdog.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "watchdog: %d anomaly event(s)\n", len(watchdog.Anomalies()))
	}

	if *journey != "" {
		access := "grant-based"
		if *grantFree {
			access = "grant-free"
		}
		setup := fmt.Sprintf("%s, %s @ %s slots, %s", access, *pattern, *slot, rk.name)
		if err := printJourney(sc, results, setup); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("scenario: %s slot=%s grantfree=%v radio=%s rt=%v ues=%d\n",
			*pattern, *slot, *grantFree, *radioKind, *rt, *ues)
		printSummary(sc, results, *deadline)
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

// usageErr reports bad command-line input on one stderr line and exits 2,
// the flag package's own exit code for usage errors.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
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

// jsonlBatchPath suppresses the batch JSONL export when the run already
// streamed the file.
func jsonlBatchPath(path string, streamed bool) string {
	if streamed {
		return ""
	}
	return path
}

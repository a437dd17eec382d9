// Command urllc-report audits exported JSONL traces against the URLLC
// one-way latency budget and renders the paper's tables: a Fig. 4-style
// feasibility table (tail percentiles down to p99.999, worst case,
// reliability), the per-source budget split and the Fig. 3 temporal
// breakdown. Files carrying tail-forensics `flight` records (urllcsim
// -flight-out, urllc-sweep -flight-out) additionally render a per-miss
// forensic narrative section with each promoted packet's causal chain.
// Slot-ledger files (urllcsim -slots-out, urllcsim-slots/v1) render a "Slot
// occupancy" section; KPI files (urllcsim -kpi-out, urllcsim-kpi/v1) — and
// any trace carrying outcome records — render a "Per-UE KPIs" section with
// Age-of-Information, Jain fairness and reliability CCDF excerpts.
// Self-profile files (urllcsim -prof-out, urllcsim-profile/v3) render the
// engine's per-event-type wall attribution and, when the run was metered,
// its measured observer-tax line. Traces written with sampling state their
// effective sample rate in the audit header.
//
//	urllcsim -jsonl-out run.jsonl
//	urllc-report run.jsonl                      # Markdown to stdout
//	urllc-report -deadline 1ms a.jsonl b.jsonl  # audit several traces
//	urllc-report -csv feas.csv -breakdown-csv steps.csv run.jsonl
//	urllcsim -flight-out tail.jsonl && urllc-report tail.jsonl
//
// The JSONL round trip is lossless to the nanosecond, so offline audits
// match in-process ones exactly. Inputs are validated: an empty file, a
// truncated record or an unknown schema version is a one-line error and a
// non-zero exit, never a zero-filled report.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/sim"
	"urllcsim/internal/version"
)

func main() {
	deadline := flag.Duration("deadline", 500*time.Microsecond, "one-way latency budget packets are audited against")
	mdOut := flag.String("md", "", "write the Markdown report to this file instead of stdout")
	feasOut := flag.String("csv", "", "write the Fig. 4-style feasibility table as CSV to this file")
	breakdownOut := flag.String("breakdown-csv", "", "write the Fig. 3 temporal breakdown as CSV to this file")
	kpiOut := flag.String("kpi-csv", "", "write the per-UE KPI table (AoI, fairness, reliability) as CSV to this file")
	ccdfOut := flag.String("ccdf-csv", "", "write the reliability CCDF curves as CSV to this file")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()

	if *showVersion {
		version.Print(os.Stdout, "urllc-report", nil,
			[]string{obs.TraceSchema, obs.SlotsSchema, analyze.KPISchema, flight.Schema, flight.AnomalySchema, prof.ReportSchema})
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: urllc-report [flags] trace.jsonl [trace.jsonl ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var audits []*analyze.Audit
	var forensics []*flight.File
	var slotFiles []*obs.SlotFile
	var kpis []*analyze.KPIReport
	type labeledProfile struct {
		label string
		rep   *prof.Report
	}
	var profiles []labeledProfile
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// One file may carry trace, flight, slot-ledger, KPI or profile
		// records, or a mix; each reader skips the other dialects' kinds.
		tr, errTrace := analyze.ReadJSONL(bytes.NewReader(data))
		fl, errFlight := flight.ReadJSONL(bytes.NewReader(data))
		sf, errSlots := obs.ReadSlotsJSONL(bytes.NewReader(data))
		kf, errKPI := analyze.ReadKPIJSONL(bytes.NewReader(data))
		pf, errProf := prof.ReadJSONL(bytes.NewReader(data))
		if err := cmp.Or(errTrace, errFlight, errSlots, errKPI, errProf); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		hasTrace := len(tr.Spans)+len(tr.Outcomes) > 0
		if !hasTrace && !fl.HasMeta && !sf.HasMeta && !kf.HasMeta && len(pf) == 0 {
			fmt.Fprintf(os.Stderr, "%s: no trace, flight, slot, kpi or profile records (empty or non-JSONL input)\n", path)
			os.Exit(1)
		}
		label := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if hasTrace {
			audits = append(audits, analyze.Run(tr, label, sim.Duration(*deadline)))
			// Traces carry the outcomes the KPI pass feeds on — render the
			// per-UE view alongside the feasibility audit.
			if len(tr.Outcomes) > 0 {
				kpis = append(kpis, analyze.ComputeKPI(tr, label))
			}
		}
		if fl.HasMeta {
			if fl.Label == "" {
				fl.Label = label
			}
			forensics = append(forensics, fl)
		}
		if sf.HasMeta {
			if sf.Label == "" {
				sf.Label = label
			}
			slotFiles = append(slotFiles, sf)
		}
		if kf.HasMeta {
			if kf.Report.Label == "" {
				kf.Report.Label = label
			}
			kpis = append(kpis, &kf.Report)
		}
		for _, rep := range pf {
			profiles = append(profiles, labeledProfile{label: label, rep: rep})
		}
	}

	writeReport := func(w io.Writer) error {
		if len(audits) > 0 {
			if err := analyze.WriteMarkdown(w, audits); err != nil {
				return err
			}
		}
		for _, rep := range kpis {
			if err := analyze.WriteKPIMarkdown(w, rep); err != nil {
				return err
			}
		}
		for _, sf := range slotFiles {
			if err := obs.WriteSlotsMarkdown(w, sf); err != nil {
				return err
			}
		}
		for _, fl := range forensics {
			if err := flight.WriteMarkdown(w, fl); err != nil {
				return err
			}
		}
		for _, lp := range profiles {
			if _, err := fmt.Fprintf(w, "\n_self-profile: %s (%s)_\n\n%s", lp.label, lp.rep.Schema, lp.rep.MarkdownTable()); err != nil {
				return err
			}
		}
		return nil
	}
	if *mdOut != "" {
		if err := obs.WriteFile(*mdOut, writeReport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		if err := writeReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *feasOut != "" {
		if err := obs.WriteFile(*feasOut, func(w io.Writer) error { return analyze.WriteFeasibilityCSV(w, audits) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *breakdownOut != "" {
		if err := obs.WriteFile(*breakdownOut, func(w io.Writer) error { return analyze.WriteBreakdownCSV(w, audits) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *kpiOut != "" {
		if err := obs.WriteFile(*kpiOut, func(w io.Writer) error { return analyze.WriteKPICSV(w, kpis) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *ccdfOut != "" {
		if err := obs.WriteFile(*ccdfOut, func(w io.Writer) error { return analyze.WriteCCDFCSV(w, kpis) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

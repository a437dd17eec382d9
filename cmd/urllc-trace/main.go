// Command urllc-trace prints the Fig. 3-style journey of a single packet
// through the full simulated stack: every step, attributed to the paper's
// three latency sources (protocol / processing / radio).
//
//	urllc-trace                       # grant-based UL ping on the §7 testbed
//	urllc-trace -dl                   # downlink journey
//	urllc-trace -grantfree            # grant-free UL
//	urllc-trace -json                 # machine-readable result + spans on stdout
//	urllc-trace -trace-out trace.json # Chrome trace-event JSON (open in Perfetto)
//	urllc-trace -jsonl-out events.jsonl -metrics-out metrics.csv
//	urllc-trace -audit                # deadline-budget audit of the journey
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/sim"
	"urllcsim/internal/version"
)

func main() {
	dl := flag.Bool("dl", false, "trace a downlink packet instead of uplink")
	grantFree := flag.Bool("grantfree", false, "grant-free UL")
	seed := flag.Uint64("seed", 1, "simulation seed")
	at := flag.Duration("at", 337*time.Microsecond, "arrival time within the TDD pattern")
	jsonOut := flag.Bool("json", false, "print the result as JSON (with structured spans) instead of text")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	jsonlOut := flag.String("jsonl-out", "", "write the span and outcome trace (one JSON object per line) to this file")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry summary as CSV to this file")
	audit := flag.Bool("audit", false, "append the deadline-budget audit (Fig. 3/4 tables) to the text output")
	deadline := flag.Duration("deadline", 500*time.Microsecond, "one-way budget for -audit")
	showVersion := flag.Bool("version", false, "print build and schema versions, then exit")
	flag.Parse()

	if *showVersion {
		version.Print(os.Stdout, "urllc-trace", []string{obs.TraceSchema}, nil)
		return
	}

	// The journey is the packet's span stream, so every output reads the
	// recorder; it is passive and changes nothing about the simulation.
	rec := obs.NewRecorder()

	sc, err := urllcsim.NewScenario(urllcsim.ScenarioConfig{
		Pattern:   urllcsim.PatternDDDU,
		SlotScale: urllcsim.Slot0p5ms,
		GrantFree: *grantFree,
		Radio:     urllcsim.RadioUSB2,
		Seed:      *seed,
		Deadline:  *deadline,
		Obs:       rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var id int
	if *dl {
		id = sc.SendDownlink(*at, 32)
	} else {
		id = sc.SendUplink(*at, 32)
	}
	rs := sc.Run(100 * time.Millisecond)
	if len(rs) == 0 {
		fmt.Fprintln(os.Stderr, "packet did not resolve within the horizon")
		os.Exit(1)
	}
	r := rs[0]

	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, rec)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *jsonlOut != "" {
		if err := obs.WriteFile(*jsonlOut, func(w io.Writer) error {
			return obs.WriteJSONL(w, rec)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, func(w io.Writer) error {
			return obs.WriteMetricsCSV(w, rec.Metrics())
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		printJSON(r, rec.PacketSpans(id))
		return
	}

	dirName := "uplink"
	if *dl {
		dirName = "downlink"
	}
	access := "grant-based"
	if *grantFree {
		access = "grant-free"
	}
	fmt.Printf("journey of a %s packet (%s, DDDU @ 0.5ms slots, USB2 B210)\n", dirName, access)
	fmt.Printf("arrival %v, delivered=%v, one-way latency %v, attempts %d\n\n",
		*at, r.Delivered, r.Latency.Round(time.Microsecond), r.Attempts)
	journey, err := sc.Journey(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(journey)
	fmt.Printf("\nshares: protocol %.0f%%, processing %.0f%%, radio %.0f%%\n",
		100*r.ProtocolShare, 100*r.ProcessingShare, 100*r.RadioShare)

	if *audit {
		a := analyze.Run(analyze.FromRecorder(rec), "trace", sim.Duration(*deadline))
		fmt.Println()
		if err := analyze.WriteMarkdown(os.Stdout, []*analyze.Audit{a}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// jsonResult is the -json stdout shape: the packet outcome plus its
// structured spans (times in µs, the paper's unit).
type jsonResult struct {
	ID              int        `json:"id"`
	Uplink          bool       `json:"uplink"`
	Delivered       bool       `json:"delivered"`
	LatencyUs       float64    `json:"latency_us"`
	Attempts        int        `json:"attempts"`
	ProtocolShare   float64    `json:"protocol_share"`
	ProcessingShare float64    `json:"processing_share"`
	RadioShare      float64    `json:"radio_share"`
	Spans           []jsonSpan `json:"spans"`
}

type jsonSpan struct {
	Step    string  `json:"step"`
	Layer   string  `json:"layer"`
	Source  string  `json:"source"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func printJSON(r urllcsim.PacketResult, spans []obs.Span) {
	out := jsonResult{
		ID: r.ID, Uplink: r.Uplink, Delivered: r.Delivered,
		LatencyUs: float64(r.Latency) / 1000, Attempts: r.Attempts,
		ProtocolShare: r.ProtocolShare, ProcessingShare: r.ProcessingShare,
		RadioShare: r.RadioShare,
		Spans:      make([]jsonSpan, 0, len(spans)),
	}
	for _, s := range spans {
		out.Spans = append(out.Spans, jsonSpan{
			Step: s.Step, Layer: s.Layer.String(), Source: s.Source.String(),
			StartUs: s.Start.Micros(), DurUs: float64(s.Dur) / 1000,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

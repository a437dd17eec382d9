package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// jsonChainStep is the wire form of one causal-chain entry.
type jsonChainStep struct {
	TUs  float64 `json:"t_us"`
	Type string  `json:"type"` // "span" | "edge"
	Name string  `json:"name"` // span step text or edge kind

	// span
	Layer  string  `json:"layer,omitempty"`
	Source string  `json:"source,omitempty"`
	DurUs  float64 `json:"dur_us,omitempty"`

	// edge
	RefUs float64 `json:"ref_us,omitempty"`
	Arg   int64   `json:"arg,omitempty"`
}

// jsonFlight is the wire form of one exemplar: the schema-versioned `flight`
// record.
type jsonFlight struct {
	Kind         string          `json:"kind"` // "flight"
	Schema       string          `json:"schema"`
	Label        string          `json:"label,omitempty"`
	Shard        int             `json:"shard"`
	Packet       int             `json:"packet"`
	Dir          string          `json:"dir"`
	Reason       string          `json:"reason"`
	Delivered    bool            `json:"delivered"`
	LatencyUs    float64         `json:"latency_us"`
	DeadlineUs   float64         `json:"deadline_us"`
	Attempts     int             `json:"attempts"`
	Narrative    string          `json:"narrative"`
	Chain        []jsonChainStep `json:"chain"`
	ChainDropped int             `json:"chain_dropped,omitempty"`
	Untracked    bool            `json:"untracked,omitempty"`
}

// jsonFlightMeta heads a flight JSONL stream.
type jsonFlightMeta struct {
	Kind       string  `json:"kind"` // "flight_meta"
	Schema     string  `json:"schema"`
	Label      string  `json:"label,omitempty"`
	DeadlineUs float64 `json:"deadline_us"`
	TopK       int     `json:"topk"`
}

func us(d sim.Duration) float64 { return float64(d) / 1000 }

// WriteJSONL writes the set as schema-versioned JSONL: one flight_meta line,
// then one flight record per exemplar (misses first, then per-direction
// worst). label tags every record — sweep grid points write their point
// label here so one file can carry several merged sets.
func WriteJSONL(w io.Writer, s *Set, label string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonFlightMeta{
		Kind: "flight_meta", Schema: Schema, Label: label,
		DeadlineUs: us(s.Deadline), TopK: s.TopK,
	}); err != nil {
		return err
	}
	for _, ex := range s.Exemplars() {
		exLabel := ex.Label
		if exLabel == "" {
			exLabel = label
		}
		jf := jsonFlight{
			Kind: "flight", Schema: Schema, Label: exLabel,
			Shard: ex.Shard, Packet: ex.Packet, Dir: ex.Dir.String(),
			Reason: ex.Reason, Delivered: ex.Delivered,
			LatencyUs: us(ex.Latency), DeadlineUs: us(s.Deadline),
			Attempts: ex.Attempts, Narrative: Narrative(ex, s.Deadline),
			ChainDropped: ex.ChainDropped, Untracked: ex.Untracked,
			Chain: make([]jsonChainStep, 0, len(ex.Chain)),
		}
		for _, cs := range ex.Chain {
			js := jsonChainStep{TUs: cs.Time.Micros()}
			if cs.IsEdge {
				js.Type = "edge"
				js.Name = cs.Kind.String()
				js.RefUs = cs.Ref.Micros()
				js.Arg = cs.Arg
			} else {
				js.Type = "span"
				js.Name = cs.Step
				js.Layer = cs.Layer.String()
				js.Source = cs.Source.String()
				js.DurUs = us(cs.Dur)
			}
			jf.Chain = append(jf.Chain, js)
		}
		if err := enc.Encode(jf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// File is a re-ingested flight JSONL stream: the exemplars plus any anomaly
// records the watchdog appended.
type File struct {
	Label     string
	Deadline  sim.Duration
	TopK      int
	HasMeta   bool // a flight_meta line was present: this is a valid (possibly exemplar-free) flight stream
	Exemplars []*Exemplar
	Anomalies []Anomaly
}

// ReadJSONL parses a flight JSONL stream written by WriteJSONL. Unknown
// record kinds are skipped (a combined trace+flight file reads fine);
// malformed JSON, unknown enum names, a µs field outside jsonl's exact range
// or an unknown flight schema are errors.
func ReadJSONL(r io.Reader) (*File, error) {
	f := &File{}
	err := jsonl.Read(r, "flight", map[string]jsonl.Kind{
		"flight_meta": {Schema: Schema, Decode: func(line []byte) error {
			var fm jsonFlightMeta
			if err := json.Unmarshal(line, &fm); err != nil {
				return err
			}
			deadline, err := jsonl.NanosFromMicros("deadline_us", fm.DeadlineUs)
			if err != nil {
				return err
			}
			f.HasMeta = true
			f.Label = fm.Label
			f.Deadline = sim.Duration(deadline)
			f.TopK = fm.TopK
			return nil
		}},
		"flight": {Schema: Schema, Decode: func(line []byte) error {
			var jf jsonFlight
			if err := json.Unmarshal(line, &jf); err != nil {
				return err
			}
			ex, err := parseExemplar(&jf)
			if err != nil {
				return err
			}
			f.Exemplars = append(f.Exemplars, ex)
			return nil
		}},
		"anomaly": {Schema: AnomalySchema, Decode: func(line []byte) error {
			var ja jsonAnomaly
			if err := json.Unmarshal(line, &ja); err != nil {
				return err
			}
			a, err := parseAnomaly(&ja)
			if err != nil {
				return err
			}
			f.Anomalies = append(f.Anomalies, a)
			return nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func parseExemplar(jf *jsonFlight) (*Exemplar, error) {
	dir, ok := obs.ParseDir(jf.Dir)
	if !ok {
		return nil, fmt.Errorf("unknown dir %q", jf.Dir)
	}
	latency, err := jsonl.NanosFromMicros("latency_us", jf.LatencyUs)
	if err != nil {
		return nil, err
	}
	ex := &Exemplar{
		Shard: jf.Shard, Packet: jf.Packet, Dir: dir, Reason: jf.Reason,
		Delivered: jf.Delivered, Latency: sim.Duration(latency),
		Attempts: jf.Attempts, ChainDropped: jf.ChainDropped, Untracked: jf.Untracked,
		Label: jf.Label,
	}
	for _, js := range jf.Chain {
		t, err := jsonl.NanosFromMicros("t_us", js.TUs)
		if err != nil {
			return nil, err
		}
		cs := ChainStep{Time: sim.Time(t)}
		switch js.Type {
		case "edge":
			kind, ok := obs.ParseEdgeKind(js.Name)
			if !ok {
				return nil, fmt.Errorf("unknown edge kind %q", js.Name)
			}
			ref, err := jsonl.NanosFromMicros("ref_us", js.RefUs)
			if err != nil {
				return nil, err
			}
			cs.IsEdge = true
			cs.Kind = kind
			cs.Ref = sim.Time(ref)
			cs.Arg = js.Arg
		case "span":
			layer, ok := obs.ParseLayer(js.Layer)
			if !ok {
				return nil, fmt.Errorf("unknown layer %q", js.Layer)
			}
			src, ok := core.ParseSource(js.Source)
			if !ok {
				return nil, fmt.Errorf("unknown source %q", js.Source)
			}
			dur, err := jsonl.NanosFromMicros("dur_us", js.DurUs)
			if err != nil {
				return nil, err
			}
			cs.Step = js.Name
			cs.Layer = layer
			cs.Source = src
			cs.Dur = sim.Duration(dur)
		default:
			return nil, fmt.Errorf("unknown chain-step type %q", js.Type)
		}
		ex.Chain = append(ex.Chain, cs)
	}
	return ex, nil
}

// Narrative renders an exemplar's causal chain as the one-line forensic
// story a human reads first: the protocol decisions that cost time, HARQ
// NACKs collapsed into one "×n" clause, and the verdict attributed to the
// dominant latency source — e.g. "SR waited 212µs for a UL slot → grant
// 325µs after SR → HARQ NACK ×2 → budget blown in protocol (+812µs over)".
func Narrative(ex *Exemplar, deadline sim.Duration) string {
	var parts []string
	nacks := 0
	flush := func() {
		if nacks > 0 {
			if nacks == 1 {
				parts = append(parts, "HARQ NACK")
			} else {
				parts = append(parts, fmt.Sprintf("HARQ NACK ×%d", nacks))
			}
			nacks = 0
		}
	}
	for _, cs := range ex.Chain {
		if !cs.IsEdge {
			continue
		}
		if cs.Kind == obs.EdgeCRCFail {
			nacks++
			continue
		}
		switch cs.Kind {
		case obs.EdgeSRSent:
			flush()
			parts = append(parts, fmt.Sprintf("SR waited %.0fµs for a UL slot", us(sim.Duration(cs.Arg))))
		case obs.EdgeGrantIssued:
			flush()
			parts = append(parts, fmt.Sprintf("grant %.0fµs after SR", us(sim.Duration(cs.Arg))))
		case obs.EdgeEnqueued:
			if cs.Arg > 1 {
				flush()
				parts = append(parts, fmt.Sprintf("enqueued behind %d", cs.Arg-1))
			}
		case obs.EdgeSchedTake:
			flush()
			parts = append(parts, fmt.Sprintf("scheduled after %.0fµs in RLC queue", us(sim.Duration(cs.Arg))))
		case obs.EdgeRadioMiss:
			flush()
			parts = append(parts, fmt.Sprintf("radio missed the slot by %.0fµs → requeued", us(sim.Duration(cs.Arg))))
		case obs.EdgeTxStart:
			if cs.Arg > 1 {
				flush()
				parts = append(parts, fmt.Sprintf("attempt %d on air", cs.Arg))
			}
		}
	}
	flush()
	if len(parts) == 0 {
		if ex.Untracked {
			parts = append(parts, "causal history evicted before resolution")
		} else {
			parts = append(parts, "clean first-attempt journey")
		}
	}
	switch ex.Reason {
	case ReasonLoss:
		parts = append(parts, fmt.Sprintf("lost after %d attempt(s)", ex.Attempts))
	case ReasonDeadlineMiss:
		verdict := fmt.Sprintf("budget blown in %s", ex.dominantSource())
		if deadline > 0 {
			verdict += fmt.Sprintf(" (+%.0fµs over)", us(ex.Latency-deadline))
		}
		parts = append(parts, verdict)
	default:
		parts = append(parts, fmt.Sprintf("delivered in %.0fµs (tail exemplar)", us(ex.Latency)))
	}
	return strings.Join(parts, " → ")
}

// dominantSource sums the chain's span durations per latency source and
// names the largest — the Fig. 3 taxonomy applied to one packet.
func (ex *Exemplar) dominantSource() core.Source {
	var by [core.NumSources]sim.Duration
	for _, cs := range ex.Chain {
		if !cs.IsEdge {
			by[cs.Source] += cs.Dur
		}
	}
	best := core.Protocol
	for _, s := range core.Sources {
		if by[s] > by[best] {
			best = s
		}
	}
	return best
}

// WriteChromeTrace writes a focused Perfetto trace: only the promoted
// exemplars, one thread per packet named with its verdict, spans as complete
// events and causal edges as instant markers — the trace you open when one
// specific deadline miss needs explaining, instead of scrolling a
// full-run trace with 100k happy packets.
func WriteChromeTrace(w io.Writer, s *Set) error {
	tr := obs.NewChromeTrace()
	for _, ex := range s.Exemplars() {
		pid := obs.ChromePid(ex.Dir)
		tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: ex.Packet,
			Args: map[string]any{"name": fmt.Sprintf("packet %d [%s]", ex.Packet, ex.Reason)},
		})
		for _, cs := range ex.Chain {
			if cs.IsEdge {
				tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
					Name: cs.Kind.String(), Cat: "edge", Ph: "i",
					Ts: cs.Time.Micros(), Pid: pid, Tid: ex.Packet,
					Args: map[string]any{"arg": cs.Arg, "ref_us": cs.Ref.Micros()},
				})
				continue
			}
			dur := us(cs.Dur)
			tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
				Name: cs.Step, Cat: cs.Source.String(), Ph: "X",
				Ts: cs.Time.Micros(), Dur: &dur, Pid: pid, Tid: ex.Packet,
				Args: map[string]any{
					"packet": ex.Packet, "layer": cs.Layer.String(),
					"source": cs.Source.String(), "reason": ex.Reason,
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(tr)
}

// WriteMarkdown renders the set as the per-miss forensic section of a
// report: one block per exemplar with the narrative and the exactly-ordered
// causal chain.
func WriteMarkdown(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	label := f.Label
	if label == "" {
		label = "run"
	}
	fmt.Fprintf(bw, "\n## Tail forensics — %s (deadline %.0fµs)\n\n", label, us(f.Deadline))
	if len(f.Exemplars) == 0 {
		fmt.Fprintf(bw, "No promoted exemplars: no losses, no deadline misses, and no tail candidates recorded.\n")
	}
	for _, ex := range f.Exemplars {
		tag := ""
		if ex.Label != "" && ex.Label != f.Label {
			tag = " [" + ex.Label + "]"
		}
		fmt.Fprintf(bw, "### %s packet %d — %s (%.0fµs, %d attempt(s))%s\n\n",
			ex.Dir, ex.Packet, ex.Reason, us(ex.Latency), ex.Attempts, tag)
		fmt.Fprintf(bw, "**%s**\n\n", Narrative(ex, f.Deadline))
		if len(ex.Chain) > 0 {
			fmt.Fprintf(bw, "| t (µs) | kind | what | detail |\n|---:|---|---|---|\n")
			for _, cs := range ex.Chain {
				if cs.IsEdge {
					fmt.Fprintf(bw, "| %.2f | edge | %s | arg=%d |\n",
						cs.Time.Micros(), cs.Kind, cs.Arg)
				} else {
					fmt.Fprintf(bw, "| %.2f | %s/%s | %s | %.2fµs |\n",
						cs.Time.Micros(), cs.Layer, cs.Source, mdEscape(cs.Step), us(cs.Dur))
				}
			}
			if ex.ChainDropped > 0 {
				fmt.Fprintf(bw, "\n(%d further chain entries dropped at the ring cap)\n", ex.ChainDropped)
			}
			fmt.Fprintln(bw)
		}
	}
	for _, a := range f.Anomalies {
		fmt.Fprintf(bw, "- anomaly at t=%.0fµs: %s %s = %.3g (threshold %.3g, n=%d)\n",
			a.Time.Micros(), a.Dir, a.Metric, a.Value, a.Threshold, a.N)
	}
	return bw.Flush()
}

// mdEscape keeps table cells intact when a step name carries a pipe.
func mdEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

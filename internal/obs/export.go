package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"urllcsim/internal/obs/jsonl"
)

// TraceSchema versions the JSONL span/outcome trace format; bump on
// any breaking field change. Readers accept files with no meta line (written
// before the schema existed) but refuse an unknown version outright, so a
// report is never silently zero-filled from a format it cannot parse.
const TraceSchema = "urllcsim-trace/v1"

// appendMetaLine appends the first line of a JSONL trace: its schema
// version and, when the recorder sampled its packet stream, the effective
// sample rate — readers surface it so a sampled trace is never mistaken for
// the full population. Unsampled traces omit the field and stay
// byte-identical to pre-sampling writers.
func appendMetaLine(b []byte, r *Recorder) ([]byte, error) {
	b = append(b, `{"kind":"meta","schema":`...)
	b = jsonl.AppendString(b, TraceSchema)
	if sr := r.SampleRate(); sr < 1 && sr != 0 {
		var err error
		b = append(b, `,"sample_rate":`...)
		if b, err = jsonl.AppendFloat(b, sr); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// appendSpanLine / appendOutcomeLine append one record's JSONL line, shared
// by the batch and streaming writers so the two cannot drift. Times are µs,
// the paper's unit, printed exactly (jsonl.AppendMicros).
func appendSpanLine(b []byte, s *Span) []byte {
	b = append(b, `{"kind":"span","packet":`...)
	b = jsonl.AppendInt(b, s.Packet)
	b = append(b, `,"dir":`...)
	b = jsonl.AppendString(b, s.Dir.String())
	b = append(b, `,"layer":`...)
	b = jsonl.AppendString(b, s.Layer.String())
	b = append(b, `,"step":`...)
	b = jsonl.AppendString(b, s.Step)
	b = append(b, `,"source":`...)
	b = jsonl.AppendString(b, s.Source.String())
	b = append(b, `,"start_us":`...)
	b = jsonl.AppendMicros(b, int64(s.Start))
	b = append(b, `,"dur_us":`...)
	b = jsonl.AppendMicros(b, int64(s.Dur))
	return append(b, "}\n"...)
}

// appendOutcomeLine: ue is the logical UE (0 in older traces); end_us is the
// resolution instant (0 in pre-v1 traces).
func appendOutcomeLine(b []byte, o *Outcome) []byte {
	b = append(b, `{"kind":"outcome","packet":`...)
	b = jsonl.AppendInt(b, o.Packet)
	b = append(b, `,"ue":`...)
	b = jsonl.AppendInt(b, o.UE)
	b = append(b, `,"dir":`...)
	b = jsonl.AppendString(b, o.Dir.String())
	b = append(b, `,"delivered":`...)
	b = strconv.AppendBool(b, o.Delivered)
	b = append(b, `,"latency_us":`...)
	b = jsonl.AppendMicros(b, int64(o.Latency))
	b = append(b, `,"attempts":`...)
	b = jsonl.AppendInt(b, o.Attempts)
	b = append(b, `,"end_us":`...)
	b = jsonl.AppendMicros(b, int64(o.End))
	return append(b, "}\n"...)
}

// traceWriter writes a JSONL trace through one reused line buffer, keeping
// the first error; once one is seen, later writes are skipped. WriteJSONL
// and JSONLStream both write through it, so their files cannot drift.
type traceWriter struct {
	bw   *bufio.Writer
	line []byte
	err  error
}

// start begins a trace of r into w with its meta line.
func (tw *traceWriter) start(w io.Writer, r *Recorder) {
	tw.bw = bufio.NewWriter(w)
	if tw.line, tw.err = appendMetaLine(make([]byte, 0, 256), r); tw.err == nil {
		_, tw.err = tw.bw.Write(tw.line)
	}
}

// spans writes one line per span of one block. It is the recorder's spill
// callback in the streaming form: the block aliases storage the recorder
// recycles right after, so it is fully encoded before returning.
func (tw *traceWriter) spans(spans []Span) {
	for i := 0; i < len(spans) && tw.err == nil; i++ {
		tw.line = appendSpanLine(tw.line[:0], &spans[i])
		_, tw.err = tw.bw.Write(tw.line)
	}
}

// spanLog writes every span r still holds.
func (tw *traceWriter) spanLog(r *Recorder) {
	for b := range r.Spans().Blocks() {
		tw.spans(b)
	}
}

// finish writes r's outcomes, flushes, and returns the first error seen
// anywhere in the trace.
func (tw *traceWriter) finish(r *Recorder) error {
	for outcomes := range r.Outcomes().Blocks() {
		for i := 0; i < len(outcomes) && tw.err == nil; i++ {
			tw.line = appendOutcomeLine(tw.line[:0], &outcomes[i])
			_, tw.err = tw.bw.Write(tw.line)
		}
	}
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

// WriteJSONL writes every span and outcome as one JSON object per line:
// spans first (recording order), then outcomes. The format is grep- and
// jq-friendly, the shape related simulators (SimURLLC's per-seed event
// logs) treat as table stakes, and internal/obs/analyze
// re-ingests it losslessly (µs decimals round-trip to exact nanoseconds).
// Each line is assembled in one reused buffer, so the writer's allocations
// do not grow with the record count.
func WriteJSONL(w io.Writer, r *Recorder) error {
	var tw traceWriter
	tw.start(w, r)
	tw.spanLog(r)
	return tw.finish(r)
}

// JSONLStream is the streaming sibling of WriteJSONL: it mounts itself as
// the recorder's span spill, so spans are written to w block by block
// during the run while the recorder holds at most one block of them. Close
// writes the unspilled span tail, then outcomes — the finished stream is
// byte-identical to WriteJSONL on a recorder that retained everything.
type JSONLStream struct {
	r  *Recorder
	tw traceWriter
}

// StreamJSONL starts a streaming JSONL export of r into w. The caller must
// Close the stream after the run to complete the file and unmount the
// spill.
func StreamJSONL(w io.Writer, r *Recorder) (*JSONLStream, error) {
	st := &JSONLStream{r: r}
	if st.tw.start(w, r); st.tw.err != nil {
		return nil, st.tw.err
	}
	r.SpillSpans(st.tw.spans)
	return st, nil
}

// Close unmounts the spill and writes the remaining records. Returns the
// first error seen anywhere in the stream.
func (st *JSONLStream) Close() error {
	st.tw.spanLog(st.r)
	st.r.SpillSpans(nil)
	return st.tw.finish(st.r)
}

// ChromeEvent is one entry of the Chrome trace-event format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. ts/dur are in
// microseconds per the format spec. The flight recorder's focused trace
// (internal/obs/flight) writes the same type.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object container variant of the format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NewChromeTrace returns a trace holding the process metadata every
// urllcsim trace starts with: one process per direction so Perfetto groups
// UL and DL journeys, plus one for system-wide counters (see ChromePid).
func NewChromeTrace() *ChromeTrace {
	tr := &ChromeTrace{DisplayTimeUnit: "ms"}
	for pid, name := range []string{"system", "uplink", "downlink"} {
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	return tr
}

// ChromePid is the trace process of a direction: 1 uplink, 2 downlink and 0
// (system) for anything else.
func ChromePid(d Dir) int {
	switch d {
	case DirUL:
		return 1
	case DirDL:
		return 2
	default:
		return 0
	}
}

// WriteChromeTrace writes the recorded spans and counter snapshots
// as Chrome trace-event JSON. Each packet is a thread ("packet N") inside
// the UL or DL process; spans are complete ("X") events attributed to the
// paper's latency source via the cat field; counter snapshots become "C"
// events so Perfetto renders slot-aligned counter tracks.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	tr := NewChromeTrace()
	named := map[[2]int]bool{} // (pid, tid) → thread_name emitted
	for s := range r.Spans().All() {
		pid := ChromePid(s.Dir)
		key := [2]int{pid, s.Packet}
		if !named[key] {
			named[key] = true
			tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: s.Packet,
				Args: map[string]any{"name": fmt.Sprintf("packet %d", s.Packet)},
			})
		}
		dur := float64(s.Dur) / 1000
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: s.Step, Cat: s.Source.String(), Ph: "X",
			Ts: s.Start.Micros(), Dur: &dur, Pid: pid, Tid: s.Packet,
			Args: map[string]any{
				"packet": s.Packet,
				"layer":  s.Layer.String(),
				"source": s.Source.String(),
			},
		})
	}
	if reg := r.Metrics(); reg != nil {
		counters := reg.Counters()
		for _, snap := range reg.Snapshots() {
			for i, v := range snap.Counters {
				tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
					Name: counters[i].Name, Ph: "C",
					Ts: snap.T.Micros(), Pid: ChromePid(DirNone), Tid: 0,
					Args: map[string]any{"value": v},
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(tr)
}

// WriteMetricsCSV writes a summary of every counter, gauge and timing as
// CSV rows: kind,name,value,mean_us,std_us,p50_us,p99_us,max_us,n.
// Counters fill only value; gauges fill value; timings fill the stats.
func WriteMetricsCSV(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "kind,name,value,mean_us,std_us,p50_us,p99_us,max_us,n"); err != nil {
		return err
	}
	for _, c := range reg.Counters() {
		fmt.Fprintf(bw, "counter,%s,%d,,,,,,\n", csvEscape(c.Name), c.Value())
	}
	for _, g := range reg.Gauges() {
		fmt.Fprintf(bw, "gauge,%s,%g,,,,,,\n", csvEscape(g.Name), g.Value())
	}
	for _, t := range reg.Timings() {
		fmt.Fprintf(bw, "timing,%s,,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			csvEscape(t.Name), t.Acc.Mean(), t.Acc.Std(),
			float64(t.HDR.Quantile(0.5))/1000, float64(t.HDR.Quantile(0.99))/1000,
			t.Acc.Max(), t.Acc.N())
	}
	return bw.Flush()
}

// WriteSnapshotsCSV writes the slot-aligned snapshot series as CSV: one row
// per snapshot, one column per counter and gauge (registration order).
// Metrics registered after a snapshot was taken read as empty cells in the
// earlier rows.
func WriteSnapshotsCSV(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "t_us")
	for _, c := range reg.Counters() {
		fmt.Fprintf(bw, ",%s", csvEscape(c.Name))
	}
	for _, g := range reg.Gauges() {
		fmt.Fprintf(bw, ",%s", csvEscape(g.Name))
	}
	fmt.Fprintln(bw)
	nc, ng := len(reg.Counters()), len(reg.Gauges())
	for _, s := range reg.Snapshots() {
		fmt.Fprintf(bw, "%.2f", s.T.Micros())
		for i := 0; i < nc; i++ {
			if i < len(s.Counters) {
				fmt.Fprintf(bw, ",%d", s.Counters[i])
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		for i := 0; i < ng; i++ {
			if i < len(s.Gauges) {
				fmt.Fprintf(bw, ",%g", s.Gauges[i])
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// csvEscape quotes a field if it contains a comma or quote. Metric names in
// this repository never do, but exporters should not corrupt output when
// one does.
func csvEscape(s string) string {
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			q := "\""
			for _, c := range s {
				if c == '"' {
					q += "\"\""
				} else {
					q += string(c)
				}
			}
			return q + "\""
		}
	}
	return s
}

// WriteFile opens path, runs write against it and closes it — the shared
// shape of every -trace-out/-metrics-out flag in cmd/.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

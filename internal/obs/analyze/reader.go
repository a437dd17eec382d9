package analyze

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// Trace is the re-ingested form of a JSONL export: the same spans, outcomes
// and events the recorder held when obs.WriteJSONL ran. SampleRate is the
// writer's effective packet sample rate (1 when the trace carried none —
// unsampled, the full population); reports surface it so sampled span
// populations are never read as complete ones. Outcomes are exact at every
// rate — the recorder never samples them.
type Trace struct {
	Spans      []obs.Span
	Outcomes   []obs.Outcome
	Events     []obs.Event
	SampleRate float64
}

// jsonLine is the union of every JSONL record kind; Kind dispatches.
type jsonLine struct {
	Kind string `json:"kind"`

	// meta
	Schema     string  `json:"schema"`
	SampleRate float64 `json:"sample_rate"`

	// span + event + outcome
	Packet int    `json:"packet"`
	Layer  string `json:"layer"`
	UE     int    `json:"ue"` // outcome only; 0 in older traces

	// span
	Dir     string  `json:"dir"`
	Step    string  `json:"step"`
	Source  string  `json:"source"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`

	// event
	TimeUs float64 `json:"time_us"`
	Name   string  `json:"name"`

	// outcome
	Delivered bool    `json:"delivered"`
	LatencyUs float64 `json:"latency_us"`
	Attempts  int     `json:"attempts"`
	EndUs     float64 `json:"end_us"`
}

// ReadJSONL parses a trace written by obs.WriteJSONL. Unknown record kinds
// are skipped (forward compatibility); malformed JSON, unknown enum names, a
// µs field outside jsonl's exact range or an unknown trace schema version
// are errors. Traces written before the meta line existed (no "meta" record)
// are still accepted. The result reconstructs the recorder's state
// losslessly — the writer prints every time as its exact µs decimal
// (jsonl.AppendMicros), and jsonl.NanosFromMicros recovers the nanosecond.
func ReadJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{SampleRate: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Peek at the kind before decoding the full union: other dialects
		// (slots, KPI) reuse field names with different types, so decoding
		// the union on a foreign kind would fail instead of skipping it.
		var head struct {
			Kind   string `json:"kind"`
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
		}
		if head.Kind != "meta" && head.Kind != "span" && head.Kind != "outcome" && head.Kind != "event" {
			// Future or foreign record kinds pass through silently.
			continue
		}
		var jl jsonLine
		if err := json.Unmarshal(line, &jl); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
		}
		switch jl.Kind {
		case "meta":
			if jl.Schema != obs.TraceSchema {
				return nil, fmt.Errorf("analyze: line %d: unsupported trace schema %q (this reader speaks %q)",
					lineNo, jl.Schema, obs.TraceSchema)
			}
			if jl.SampleRate > 0 && jl.SampleRate < 1 {
				tr.SampleRate = jl.SampleRate
			}
		case "span":
			dir, ok := obs.ParseDir(jl.Dir)
			if !ok {
				return nil, fmt.Errorf("analyze: line %d: unknown dir %q", lineNo, jl.Dir)
			}
			layer, ok := obs.ParseLayer(jl.Layer)
			if !ok {
				return nil, fmt.Errorf("analyze: line %d: unknown layer %q", lineNo, jl.Layer)
			}
			src, ok := core.ParseSource(jl.Source)
			if !ok {
				return nil, fmt.Errorf("analyze: line %d: unknown source %q", lineNo, jl.Source)
			}
			start, errStart := jsonl.NanosFromMicros("start_us", jl.StartUs)
			dur, errDur := jsonl.NanosFromMicros("dur_us", jl.DurUs)
			if err := cmp.Or(errStart, errDur); err != nil {
				return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
			}
			tr.Spans = append(tr.Spans, obs.Span{
				Packet: jl.Packet, Dir: dir, Layer: layer, Step: jl.Step, Source: src,
				Start: sim.Time(start), Dur: sim.Duration(dur),
			})
		case "outcome":
			dir, ok := obs.ParseDir(jl.Dir)
			if !ok {
				return nil, fmt.Errorf("analyze: line %d: unknown dir %q", lineNo, jl.Dir)
			}
			latency, errLatency := jsonl.NanosFromMicros("latency_us", jl.LatencyUs)
			end, errEnd := jsonl.NanosFromMicros("end_us", jl.EndUs)
			if err := cmp.Or(errLatency, errEnd); err != nil {
				return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
			}
			tr.Outcomes = append(tr.Outcomes, obs.Outcome{
				Packet: jl.Packet, UE: jl.UE, Dir: dir, Delivered: jl.Delivered,
				Latency: sim.Duration(latency), Attempts: jl.Attempts, End: sim.Time(end),
			})
		case "event":
			layer, ok := obs.ParseLayer(jl.Layer)
			if !ok {
				return nil, fmt.Errorf("analyze: line %d: unknown layer %q", lineNo, jl.Layer)
			}
			at, err := jsonl.NanosFromMicros("time_us", jl.TimeUs)
			if err != nil {
				return nil, fmt.Errorf("analyze: line %d: %w", lineNo, err)
			}
			tr.Events = append(tr.Events, obs.Event{
				Time: sim.Time(at), Name: jl.Name, Layer: layer, Packet: jl.Packet,
			})
		default:
			// Future record kinds pass through silently.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return tr, nil
}

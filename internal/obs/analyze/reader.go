package analyze

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"urllcsim/internal/core"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// Trace is the re-ingested form of a JSONL export: the same spans and
// outcomes the recorder held when obs.WriteJSONL ran. SampleRate is the
// writer's effective packet sample rate (1 when the trace carried none —
// unsampled, the full population); reports surface it so sampled span
// populations are never read as complete ones. Outcomes are exact at every
// rate — the recorder never samples them.
type Trace struct {
	Spans      obs.Log[obs.Span]
	Outcomes   obs.Log[obs.Outcome]
	SampleRate float64
}

// jsonLine is the union of every JSONL record kind; Kind dispatches.
type jsonLine struct {
	Kind string `json:"kind"`

	// meta (jsonl.Read checks its schema)
	SampleRate float64 `json:"sample_rate"`

	// span + outcome
	Packet int    `json:"packet"`
	Dir    string `json:"dir"`
	UE     int    `json:"ue"` // outcome only; 0 in older traces

	// span
	Layer   string  `json:"layer"`
	Step    string  `json:"step"`
	Source  string  `json:"source"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`

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
	decode := func(line []byte) error {
		var jl jsonLine
		if err := json.Unmarshal(line, &jl); err != nil {
			return err
		}
		switch jl.Kind {
		case "meta":
			if jl.SampleRate > 0 && jl.SampleRate < 1 {
				tr.SampleRate = jl.SampleRate
			}
		case "span":
			dir, ok := obs.ParseDir(jl.Dir)
			if !ok {
				return fmt.Errorf("unknown dir %q", jl.Dir)
			}
			layer, ok := obs.ParseLayer(jl.Layer)
			if !ok {
				return fmt.Errorf("unknown layer %q", jl.Layer)
			}
			src, ok := core.ParseSource(jl.Source)
			if !ok {
				return fmt.Errorf("unknown source %q", jl.Source)
			}
			start, errStart := jsonl.NanosFromMicros("start_us", jl.StartUs)
			dur, errDur := jsonl.NanosFromMicros("dur_us", jl.DurUs)
			if err := cmp.Or(errStart, errDur); err != nil {
				return err
			}
			tr.Spans.Append(obs.Span{
				Packet: jl.Packet, Dir: dir, Layer: layer, Step: jl.Step, Source: src,
				Start: sim.Time(start), Dur: sim.Duration(dur),
			})
		case "outcome":
			dir, ok := obs.ParseDir(jl.Dir)
			if !ok {
				return fmt.Errorf("unknown dir %q", jl.Dir)
			}
			latency, errLatency := jsonl.NanosFromMicros("latency_us", jl.LatencyUs)
			end, errEnd := jsonl.NanosFromMicros("end_us", jl.EndUs)
			if err := cmp.Or(errLatency, errEnd); err != nil {
				return err
			}
			tr.Outcomes.Append(obs.Outcome{
				Packet: jl.Packet, UE: jl.UE, Dir: dir, Delivered: jl.Delivered,
				Latency: sim.Duration(latency), Attempts: jl.Attempts, End: sim.Time(end),
			})
		}
		return nil
	}
	err := jsonl.Read(r, "analyze", map[string]jsonl.Kind{
		"meta":    {Schema: obs.TraceSchema, Decode: decode},
		"span":    {Decode: decode},
		"outcome": {Decode: decode},
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

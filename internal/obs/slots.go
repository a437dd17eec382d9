package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"urllcsim/internal/obs/jsonl"
	"urllcsim/internal/sim"
)

// The slot-occupancy ledger answers the capacity questions aggregates hide:
// which slots were contended, how much of each planned slot's transport
// capacity was used, which UE took it, and how many SR→grant handshakes were
// served or deferred at each boundary. The node layer stamps one SlotRecord
// per scheduling tick when the ledger is enabled (EnableSlotLedger); the
// ledger exports as the urllcsim-slots/v1 JSONL dialect and merges exactly
// across sweep shards (MergeSlotLedgers), keeping the worker-count
// invariance contract.

// SlotsSchema versions the slot-ledger JSONL dialect. The meta line uses
// kind "slots_meta" (not "meta") so trace readers, which reject a foreign
// schema on their own meta kind, skip ledger files cleanly.
const SlotsSchema = "urllcsim-slots/v1"

// SlotUETake is one UE's share of one scheduling tick.
type SlotUETake struct {
	UE       int
	DLBytes  int // DL payload bytes allocated to this UE in the planned slot
	DLItems  int // RLC queue items taken for this UE
	ULBytes  int // UL grant bytes issued to this UE at this boundary
	ULGrants int // UL grants issued to this UE at this boundary
}

// SlotRecord is the ledger entry of one scheduling tick.
type SlotRecord struct {
	Boundary sim.Time
	// TargetDL is the DL slot this tick planned (sim.Never when the target
	// slot had no DL capability and nothing was planned).
	TargetDL sim.Time

	DLCapBytes  int // transport capacity of the planned DL slot
	DLUsedBytes int // bytes of that capacity actually allocated

	QueueDepth int // RLC queue depth at the boundary, before the take
	QueueTaken int // queue items consumed for the planned slot

	GrantsIssued int // UL grants issued at this boundary
	ULGrantBytes int // bytes promised by those grants
	SRsPending   int // SRs still awaiting a grant after this tick
	SRsDeferred  int // SRs considered at this tick but not granted

	// PerUE breaks the take down by UE, sorted by UE id.
	PerUE []SlotUETake
}

// EnableSlotLedger switches on per-tick ledger retention. Call before the
// simulation starts.
func (r *Recorder) EnableSlotLedger() {
	if r == nil {
		return
	}
	r.slotLedger = true
}

// SlotLedgerEnabled reports whether the ledger is collecting — the node
// layer's gate around record assembly, so unledgered runs pay one bool
// comparison per tick instead of building a record nobody keeps.
func (r *Recorder) SlotLedgerEnabled() bool { return r != nil && r.slotLedger }

// Slot appends one ledger record, copying its PerUE so the caller may reuse
// the slice. No-op unless the ledger is enabled.
func (r *Recorder) Slot(rec SlotRecord) {
	if r == nil || !r.slotLedger {
		return
	}
	if len(rec.PerUE) > 0 {
		rec.PerUE = r.takes.copyOf(rec.PerUE)
	}
	r.slots = append(r.slots, rec)
}

// takeStore holds the slot records' PerUE takes in one block that reset
// recycles; takes never move, so earlier records' slices stay valid. Takes
// that find no room get a slice of their own and reset regrows the block to
// fit them, so a fresh recorder allocates a slice per record and one
// re-running its workload after Reset allocates nothing.
type takeStore struct {
	block []SlotUETake
	off   int // takes already in block
	spill int // takes stored outside the block since the last reset
}

// copyOf stores a copy of ts and returns it.
func (s *takeStore) copyOf(ts []SlotUETake) []SlotUETake {
	end := s.off + len(ts)
	if end > len(s.block) {
		s.spill += len(ts)
		return append(make([]SlotUETake, 0, len(ts)), ts...)
	}
	dst := s.block[s.off:end:end]
	copy(dst, ts)
	s.off = end
	return dst
}

// reset empties the store, first handing the takes in the block to poison
// (see poison_debug.go).
func (s *takeStore) reset(poison func([]SlotUETake)) {
	poison(s.block[:s.off])
	if s.spill > 0 {
		s.block = make([]SlotUETake, s.off+s.spill)
	}
	s.off, s.spill = 0, 0
}

// Slots returns the ledger in tick order.
func (r *Recorder) Slots() []SlotRecord {
	if r == nil {
		return nil
	}
	return r.slots
}

// MergeSlotLedgers merges shard ledgers by slot boundary: capacities, usage,
// queue and grant counts add, per-UE takes merge by UE id. Replicas of one
// configuration tick the same boundaries with the same (grid-derived)
// TargetDL, so the merged ledger reads as the aggregate occupancy of the
// whole fleet. All sums are exact integers and the output is sorted by
// boundary, so merging in any fixed shard order is bit-identical however the
// shards were scheduled.
func MergeSlotLedgers(shards ...[]SlotRecord) []SlotRecord {
	byBoundary := map[sim.Time]*SlotRecord{}
	var order []sim.Time
	for _, shard := range shards {
		for _, rec := range shard {
			m, ok := byBoundary[rec.Boundary]
			if !ok {
				cp := rec
				cp.PerUE = append([]SlotUETake(nil), rec.PerUE...)
				byBoundary[rec.Boundary] = &cp
				order = append(order, rec.Boundary)
				continue
			}
			if m.TargetDL == sim.Never {
				m.TargetDL = rec.TargetDL
			}
			m.DLCapBytes += rec.DLCapBytes
			m.DLUsedBytes += rec.DLUsedBytes
			m.QueueDepth += rec.QueueDepth
			m.QueueTaken += rec.QueueTaken
			m.GrantsIssued += rec.GrantsIssued
			m.ULGrantBytes += rec.ULGrantBytes
			m.SRsPending += rec.SRsPending
			m.SRsDeferred += rec.SRsDeferred
			m.PerUE = mergeUETakes(m.PerUE, rec.PerUE)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]SlotRecord, 0, len(order))
	for _, b := range order {
		out = append(out, *byBoundary[b])
	}
	return out
}

// mergeUETakes folds b's takes into a by UE id, keeping the result sorted.
func mergeUETakes(a, b []SlotUETake) []SlotUETake {
	for _, t := range b {
		found := false
		for i := range a {
			if a[i].UE == t.UE {
				a[i].DLBytes += t.DLBytes
				a[i].DLItems += t.DLItems
				a[i].ULBytes += t.ULBytes
				a[i].ULGrants += t.ULGrants
				found = true
				break
			}
		}
		if !found {
			a = append(a, t)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].UE < a[j].UE })
	return a
}

// jsonSlotsMeta is the first line of a slots JSONL stream, as
// ReadSlotsJSONL decodes it.
type jsonSlotsMeta struct {
	Kind   string `json:"kind"` // "slots_meta"
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
}

// jsonSlotUE is the wire form of a SlotUETake, as ReadSlotsJSONL decodes it.
type jsonSlotUE struct {
	UE       int `json:"ue"`
	DLBytes  int `json:"dl_bytes"`
	DLItems  int `json:"dl_items"`
	ULBytes  int `json:"ul_bytes"`
	ULGrants int `json:"ul_grants"`
}

// jsonSlot is the wire form of a SlotRecord, as ReadSlotsJSONL decodes it
// (WriteSlotsJSONL appends the same fields directly). Times are µs like
// every dialect in this repository; they round-trip to exact nanoseconds.
type jsonSlot struct {
	Kind         string       `json:"kind"` // "slot"
	BoundaryUs   float64      `json:"boundary_us"`
	DL           bool         `json:"dl"` // tick planned a DL-capable slot
	TargetDLUs   float64      `json:"target_dl_us,omitempty"`
	CapBytes     int          `json:"cap_bytes"`
	UsedBytes    int          `json:"used_bytes"`
	QueueDepth   int          `json:"qdepth"`
	QueueTaken   int          `json:"qtaken"`
	GrantsIssued int          `json:"grants"`
	ULGrantBytes int          `json:"grant_bytes"`
	SRsPending   int          `json:"srs_pending"`
	SRsDeferred  int          `json:"srs_deferred"`
	PerUE        []jsonSlotUE `json:"per_ue,omitempty"`
}

// WriteSlotsJSONL writes the ledger as one urllcsim-slots/v1 JSONL stream:
// a slots_meta line, then one slot line per scheduling tick. The lines carry
// jsonSlotsMeta's and jsonSlot's fields, appended directly into one reused
// buffer, so the writer's allocations do not grow with the ledger.
func WriteSlotsJSONL(w io.Writer, recs []SlotRecord, label string) error {
	bw := bufio.NewWriter(w)
	line := append(make([]byte, 0, 512), `{"kind":"slots_meta","schema":`...)
	line = jsonl.AppendString(line, SlotsSchema)
	if label != "" {
		line = append(line, `,"label":`...)
		line = jsonl.AppendString(line, label)
	}
	line = append(line, "}\n"...)
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for i := range recs {
		line = appendSlotLine(line[:0], &recs[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendSlotLine appends rec's slot line. target_dl_us and per_ue follow
// jsonSlot's omitempty tags: absent when zero or empty.
func appendSlotLine(b []byte, rec *SlotRecord) []byte {
	dl := rec.TargetDL != sim.Never
	b = append(b, `{"kind":"slot","boundary_us":`...)
	b = jsonl.AppendMicros(b, int64(rec.Boundary))
	b = append(b, `,"dl":`...)
	b = strconv.AppendBool(b, dl)
	if dl && rec.TargetDL != 0 {
		b = append(b, `,"target_dl_us":`...)
		b = jsonl.AppendMicros(b, int64(rec.TargetDL))
	}
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{`,"cap_bytes":`, rec.DLCapBytes}, {`,"used_bytes":`, rec.DLUsedBytes},
		{`,"qdepth":`, rec.QueueDepth}, {`,"qtaken":`, rec.QueueTaken},
		{`,"grants":`, rec.GrantsIssued}, {`,"grant_bytes":`, rec.ULGrantBytes},
		{`,"srs_pending":`, rec.SRsPending}, {`,"srs_deferred":`, rec.SRsDeferred},
	} {
		b = append(b, f.key...)
		b = jsonl.AppendInt(b, f.v)
	}
	for i, t := range rec.PerUE {
		if i == 0 {
			b = append(b, `,"per_ue":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"ue":`...)
		b = jsonl.AppendInt(b, t.UE)
		b = append(b, `,"dl_bytes":`...)
		b = jsonl.AppendInt(b, t.DLBytes)
		b = append(b, `,"dl_items":`...)
		b = jsonl.AppendInt(b, t.DLItems)
		b = append(b, `,"ul_bytes":`...)
		b = jsonl.AppendInt(b, t.ULBytes)
		b = append(b, `,"ul_grants":`...)
		b = jsonl.AppendInt(b, t.ULGrants)
		b = append(b, '}')
	}
	if len(rec.PerUE) > 0 {
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// SlotFile is a re-ingested slots JSONL stream.
type SlotFile struct {
	Label   string
	HasMeta bool
	Records []SlotRecord
}

// ReadSlotsJSONL parses a slots stream. Unknown record kinds are skipped
// (so a mixed file also carrying trace or flight records reads cleanly);
// malformed JSON or an unknown slots schema version is a one-line error.
func ReadSlotsJSONL(r io.Reader) (*SlotFile, error) {
	f := &SlotFile{}
	err := jsonl.Read(r, "slots", map[string]jsonl.Kind{
		"slots_meta": {Schema: SlotsSchema, Decode: func(line []byte) error {
			var meta jsonSlotsMeta
			if err := json.Unmarshal(line, &meta); err != nil {
				return err
			}
			f.HasMeta = true
			if f.Label == "" {
				f.Label = meta.Label
			}
			return nil
		}},
		"slot": {Decode: func(line []byte) error {
			var js jsonSlot
			if err := json.Unmarshal(line, &js); err != nil {
				return err
			}
			boundary, err := jsonl.NanosFromMicros("boundary_us", js.BoundaryUs)
			if err != nil {
				return err
			}
			rec := SlotRecord{
				Boundary: sim.Time(boundary), TargetDL: sim.Never,
				DLCapBytes: js.CapBytes, DLUsedBytes: js.UsedBytes,
				QueueDepth: js.QueueDepth, QueueTaken: js.QueueTaken,
				GrantsIssued: js.GrantsIssued, ULGrantBytes: js.ULGrantBytes,
				SRsPending: js.SRsPending, SRsDeferred: js.SRsDeferred,
			}
			if js.DL {
				target, err := jsonl.NanosFromMicros("target_dl_us", js.TargetDLUs)
				if err != nil {
					return err
				}
				rec.TargetDL = sim.Time(target)
			}
			for _, t := range js.PerUE {
				rec.PerUE = append(rec.PerUE, SlotUETake{
					UE: t.UE, DLBytes: t.DLBytes, DLItems: t.DLItems,
					ULBytes: t.ULBytes, ULGrants: t.ULGrants,
				})
			}
			f.Records = append(f.Records, rec)
			return nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// WriteSlotsMarkdown renders the ledger as the "Slot occupancy" report
// section: whole-run utilization, the most contended slots, and per-UE
// totals.
func WriteSlotsMarkdown(w io.Writer, f *SlotFile) error {
	label := f.Label
	if label == "" {
		label = "(unlabeled)"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "\n## Slot occupancy — %s\n\n", label)
	if len(f.Records) == 0 {
		fmt.Fprintln(bw, "- ledger is empty")
		return bw.Flush()
	}

	var dlTicks, capBytes, used, taken, grants, grantBytes, deferred, maxQ int
	for _, rec := range f.Records {
		if rec.TargetDL != sim.Never {
			dlTicks++
		}
		capBytes += rec.DLCapBytes
		used += rec.DLUsedBytes
		taken += rec.QueueTaken
		grants += rec.GrantsIssued
		grantBytes += rec.ULGrantBytes
		deferred += rec.SRsDeferred
		if rec.QueueDepth > maxQ {
			maxQ = rec.QueueDepth
		}
	}
	fmt.Fprintf(bw, "- %d scheduling ticks, %d planned a DL-capable slot\n", len(f.Records), dlTicks)
	util := 0.0
	if capBytes > 0 {
		util = 100 * float64(used) / float64(capBytes)
	}
	fmt.Fprintf(bw, "- DL capacity %d bytes, used %d bytes (%.2f%% utilization), %d queue items taken\n",
		capBytes, used, util, taken)
	fmt.Fprintf(bw, "- UL grants issued %d (%d bytes), SR decisions deferred %d, max queue depth %d\n",
		grants, grantBytes, deferred, maxQ)

	// Most loaded slots, by bytes used then grants, ties by boundary.
	busiest := make([]SlotRecord, len(f.Records))
	copy(busiest, f.Records)
	sort.SliceStable(busiest, func(i, j int) bool {
		if busiest[i].DLUsedBytes != busiest[j].DLUsedBytes {
			return busiest[i].DLUsedBytes > busiest[j].DLUsedBytes
		}
		if busiest[i].GrantsIssued != busiest[j].GrantsIssued {
			return busiest[i].GrantsIssued > busiest[j].GrantsIssued
		}
		return busiest[i].Boundary < busiest[j].Boundary
	})
	const topN = 8
	n := len(busiest)
	if n > topN {
		n = topN
	}
	if n > 0 && (busiest[0].DLUsedBytes > 0 || busiest[0].GrantsIssued > 0) {
		fmt.Fprintf(bw, "\n| boundary (µs) | used/cap bytes | q depth | taken | grants | SRs deferred |\n")
		fmt.Fprintf(bw, "|---:|---:|---:|---:|---:|---:|\n")
		for _, rec := range busiest[:n] {
			if rec.DLUsedBytes == 0 && rec.GrantsIssued == 0 {
				break
			}
			fmt.Fprintf(bw, "| %.2f | %d/%d | %d | %d | %d | %d |\n",
				rec.Boundary.Micros(), rec.DLUsedBytes, rec.DLCapBytes,
				rec.QueueDepth, rec.QueueTaken, rec.GrantsIssued, rec.SRsDeferred)
		}
	}

	// Per-UE totals across the whole ledger.
	var totals []SlotUETake
	for _, rec := range f.Records {
		totals = mergeUETakes(totals, rec.PerUE)
	}
	if len(totals) > 0 {
		fmt.Fprintf(bw, "\n| UE | DL bytes | DL items | UL grant bytes | UL grants |\n")
		fmt.Fprintf(bw, "|---:|---:|---:|---:|---:|\n")
		for _, t := range totals {
			fmt.Fprintf(bw, "| %d | %d | %d | %d | %d |\n", t.UE, t.DLBytes, t.DLItems, t.ULBytes, t.ULGrants)
		}
	}
	return bw.Flush()
}

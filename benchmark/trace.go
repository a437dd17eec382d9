package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"urllcsim/internal/crypto5g"
	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
	"urllcsim/internal/stack"
)

var epoch = time.Now()

// clock is the bench clock: monotonic ns since the process started. Every
// span boundary is one reading, so adjacent spans share their boundary and
// partition their parent exactly.
func clock() int64 { return int64(time.Since(epoch)) }

// eventSink is the benchmark's engine sink. It stamps every fired event on
// the bench clock, tracks the queue-depth high-water mark and forwards to
// the sink it displaced, so mounting it changes nothing simulated.
type eventSink struct {
	eng      *sim.Engine
	inner    sim.EngineSink
	events   []event
	depthMax int
}

type event struct {
	name string
	at   int64 // bench clock when the engine handed the event to its sinks
}

func (s *eventSink) mount(eng *sim.Engine) {
	s.eng, s.inner = eng, eng.Sink
	s.events, s.depthMax = s.events[:0], 0
	eng.Sink = s
}

// EngineEvent implements sim.EngineSink. The engine calls it just before the
// event's callback, so event i's span runs from here to event i+1's call.
func (s *eventSink) EngineEvent(t sim.Time, name string) {
	s.events = append(s.events, event{name, clock()})
	s.depthMax = max(s.depthMax, s.eng.Pending())
	if s.inner != nil {
		s.inner.EngineEvent(t, name)
	}
}

// The node layers engine events are charged to, by event name. An event's
// span covers its callback and the engine's search for the next event.
const (
	layerTick = iota
	layerULTx
	layerULRx
	layerDLTx
	layerDLRx
	layerOther
	nLayers
)

var layerNames = [nLayers]string{"tick", "ul_tx", "ul_rx", "dl_tx", "dl_rx", "other"}

var eventLayer = map[string]int{
	"gnb.tick": layerTick,

	"ul.offer": layerULTx, "ul.sr.recv": layerULTx, "ul.grant": layerULTx, "ul.ready": layerULTx,
	"ul.rx": layerULRx, "ul.deliver": layerULRx,

	"dl.offer": layerDLTx, "dl.gnb.down": layerDLTx, "dl.enqueue": layerDLTx,
	"dl.onair": layerDLTx, "dl.harq": layerDLTx, "dl.radiomiss": layerDLTx,
	"dl.rx": layerDLRx, "dl.ue.up": layerDLRx,
}

func layerOf(event string) int {
	if l, ok := eventLayer[event]; ok {
		return l
	}
	return layerOther
}

// span is one traced interval. Its self time is its duration minus its
// children's.
type span struct {
	name       string
	parent     int   // index in tracer.spans; -1 for an op
	tid        int   // workload, for the Chrome view
	start, end int64 // bench clock
}

// tracer keeps every span of the traced pass in memory until exit.
type tracer struct {
	spans   []span
	threads []string // Chrome thread names, by tid
}

// opTrace is one traced op's self time by phase and layer.
type opTrace struct {
	phase        [mEnd]int64 // setup.*, obs.*; run is the events' span
	fold         int64
	busy, count  [nLayers]int64
	unattributed int64 // op and run self time: both must be 0
	wall         int64
	cal          int64 // calibration run just before the op
}

// add records the spans of op o, traced through sink s, under thread tid.
// The op span's children are its phases; the run span's children are one
// span per fired event but the last, whose firing starts the fold: the tail
// of Run that turns the engine's state into PacketResults.
func (t *tracer) add(tid int, o *op, s *eventSink) opTrace {
	base := len(t.spans)
	foldAt := o.mark[mRun]
	if n := len(s.events); n > 0 {
		foldAt = s.events[n-1].at
	}
	t.spans = append(t.spans, span{"op", -1, tid, o.mark[mBuild], o.mark[mEnd]})
	run := -1
	for p := mBuild; p < mEnd; p++ {
		start, end := o.mark[p], o.mark[p+1]
		if p == mRun {
			run = len(t.spans)
			t.spans = append(t.spans, span{"run", base, tid, start, foldAt},
				span{"fold", base, tid, foldAt, end})
		} else if end > start {
			t.spans = append(t.spans, span{phaseNames[p], base, tid, start, end})
		}
	}
	for i := 0; i+1 < len(s.events); i++ {
		start := s.events[i].at
		if i == 0 {
			start = o.mark[mRun]
		}
		t.spans = append(t.spans, span{s.events[i].name, run, tid, start, s.events[i+1].at})
	}

	spans := t.spans[base:]
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent-base] -= sp.end - sp.start
		}
	}
	ot := opTrace{wall: o.wall()}
	for i, sp := range spans {
		switch {
		case sp.parent == -1 || i+base == run:
			ot.unattributed += abs(self[i])
		case sp.parent == run:
			l := layerOf(sp.name)
			ot.busy[l] += self[i]
			ot.count[l]++
		case sp.name == "fold":
			ot.fold = self[i]
		default:
			for p, name := range phaseNames {
				if name == sp.name {
					ot.phase[p] = self[i]
				}
			}
		}
	}
	ot.phase[mRun] = spans[run-base].end - spans[run-base].start
	return ot
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// writeChrome writes the spans as Chrome trace-event JSON (one "X" event per
// span, µs times from the first span) for Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	var buf []byte
	for tid, name := range t.threads {
		buf = append(buf[:0], `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, "}},\n"...)
		bw.Write(buf)
	}
	var t0 int64
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
	}
	for i, s := range t.spans {
		buf = append(buf[:0], `{"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(s.tid), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start-t0)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
		buf = append(buf, '}')
		if i+1 < len(t.spans) {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// codecNames are the stack codecs of the kernel pass, in report order.
var codecNames = []string{"sdap", "pdcp", "rlc", "mac"}

// codecPairs is how many encode+decode pairs make one timed batch.
const (
	codecPairs   = 2000
	codecBatches = 5
)

// codecCost is one codec's encode+decode pair of a 32 B payload: median ns
// over the batches, and exact heap allocations.
type codecCost struct{ ns, allocs float64 }

// codecPass times the stack's encode+decode pairs outside the simulator,
// checking that each pair gives the payload back.
func codecPass() (map[string]codecCost, error) {
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	key := bytes.Repeat([]byte{0x5A}, 16)
	newPDCP := func() *stack.PDCP {
		return &stack.PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink,
			CipherKey: key, IntegKey: key}
	}
	sdap := &stack.SDAP{QFI: 1}
	pdcpTx, pdcpRx := newPDCP(), newPDCP()
	rlcTx, rlcRx := stack.NewRLC(), stack.NewRLC()
	mac := &stack.MAC{LCID: 4}
	pairs := map[string]func() ([]byte, error){
		"sdap": func() ([]byte, error) { return sdap.Decap(sdap.Encap(payload)) },
		"pdcp": func() ([]byte, error) {
			b, err := pdcpTx.Protect(payload)
			if err != nil {
				return nil, err
			}
			return pdcpRx.Unprotect(b)
		},
		"rlc": func() ([]byte, error) {
			segs, err := rlcTx.Segment(payload, 2*payloadBytes)
			if err != nil {
				return nil, err
			}
			return rlcRx.Receive(segs[0])
		},
		"mac": func() ([]byte, error) {
			tb, err := mac.BuildTB([][]byte{payload}, 2*payloadBytes)
			if err != nil {
				return nil, err
			}
			got, err := mac.ParseTB(tb)
			if err != nil || len(got) != 1 {
				return nil, fmt.Errorf("parsed %d payloads: %v", len(got), err)
			}
			return got[0], nil
		},
	}
	costs := map[string]codecCost{}
	for _, name := range codecNames {
		pair := func() error {
			got, err := pairs[name]()
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("round trip changed the payload")
			}
			if err != nil {
				return fmt.Errorf("codec %s: %w", name, err)
			}
			return nil
		}
		for i := 0; i < codecPairs/10; i++ {
			if err := pair(); err != nil {
				return nil, err
			}
		}
		var before, after runtime.MemStats
		ns := make([]float64, codecBatches)
		runtime.ReadMemStats(&before)
		for b := range ns {
			start := clock()
			for i := 0; i < codecPairs; i++ {
				if err := pair(); err != nil {
					return nil, err
				}
			}
			ns[b] = float64(clock()-start) / codecPairs
		}
		runtime.ReadMemStats(&after)
		costs[name] = codecCost{
			ns:     median(ns),
			allocs: float64(after.Mallocs-before.Mallocs) / (codecPairs * codecBatches),
		}
	}
	return costs, nil
}

package obs

import (
	"bytes"
	"maps"
	"testing"

	"urllcsim/internal/sim"
)

// recordKinds drives each instrument kind through its two record forms. The
// named form is Recorder.Count/SetGauge for the counter and gauge; the timing
// and the labeled families have no named recorder method, so their reference
// is a direct write through the registry accessor, outside any section
// (sectioned reports which named forms are metered records).
var recordKinds = []struct {
	name      string
	sectioned bool
	named     func(r *Recorder, i int)
	handle    func(r *Recorder) func(i int)
}{
	{"counter", true,
		func(r *Recorder, i int) { r.Count("c", int64(i)) },
		func(r *Recorder) func(int) {
			h := r.CounterH("c")
			return func(i int) { h.Add(int64(i)) }
		}},
	{"gauge", true,
		func(r *Recorder, i int) { r.SetGauge("g", float64(i)/4) },
		func(r *Recorder) func(int) {
			h := r.GaugeH("g")
			return func(i int) { h.Set(float64(i) / 4) }
		}},
	{"timing", false,
		func(r *Recorder, i int) {
			if r != nil {
				r.Metrics().Timing("t").Observe(sim.Duration(i) * sim.Microsecond)
			}
		},
		func(r *Recorder) func(int) {
			h := r.TimingH("t")
			return func(i int) { h.Observe(sim.Duration(i) * sim.Microsecond) }
		}},
	{"counter family", false,
		func(r *Recorder, i int) {
			if r != nil {
				CounterFam[PktEvent](r.Metrics(), "cf").At(PktEvent{UE: i % 3, Dir: DirUL, Event: FateDelivered}).Add(int64(i))
			}
		},
		func(r *Recorder) func(int) {
			h := CounterFamH[PktEvent](r, "cf")
			return func(i int) { h.Add(PktEvent{UE: i % 3, Dir: DirUL, Event: FateDelivered}, int64(i)) }
		}},
	{"gauge family", false,
		func(r *Recorder, i int) {
			if r != nil {
				GaugeFam[UEKey](r.Metrics(), "gf").At(UEKey{UE: i % 3}).Set(float64(i))
			}
		},
		func(r *Recorder) func(int) {
			h := GaugeFamH[UEKey](r, "gf")
			return func(i int) { h.Set(UEKey{UE: i % 3}, float64(i)) }
		}},
	{"hist family", false,
		func(r *Recorder, i int) {
			if r != nil {
				HistFam[UEDir](r.Metrics(), "hf").At(UEDir{UE: i % 3, Dir: DirDL}).AddDuration(sim.Duration(100+i) * sim.Microsecond)
			}
		},
		func(r *Recorder) func(int) {
			h := HistFamH[UEDir](r, "hf")
			return func(i int) { h.Observe(UEDir{UE: i % 3, Dir: DirDL}, sim.Duration(100+i)*sim.Microsecond) }
		}},
}

// recordModes are the recorder configurations a record path branches on.
var recordModes = []struct {
	name        string
	nil         bool
	meter, live bool
}{
	{"nil", true, false, false},
	{"plain", false, false, false},
	{"metered", false, true, false},
	{"live", false, false, true},
	{"metered+live", false, true, true},
}

// TestRecordPaths holds every metric record path to one contract across
// recorder configurations: a nil recorder is a no-op; the named and handle
// forms leave the same registry (summary, metrics CSV, snapshots CSV and
// Prometheus text); a metered recorder counts exactly one metric record per
// sectioned call and one snapshot per SlotSnapshot; and the live mutex is
// free after every call.
func TestRecordPaths(t *testing.T) {
	const calls = 7
	for _, k := range recordKinds {
		for _, m := range recordModes {
			t.Run(k.name+"/"+m.name, func(t *testing.T) {
				mk := func() *Recorder {
					if m.nil {
						return nil
					}
					r := NewRecorder()
					if m.meter {
						r.EnableMeter()
					}
					if m.live {
						r.enableLive()
					}
					return r
				}
				lockFree := func(r *Recorder, what string, i int) {
					t.Helper()
					if r == nil || r.live == nil {
						return
					}
					if !r.live.TryLock() {
						t.Fatalf("%s call %d left the live mutex held", what, i)
					}
					r.live.Unlock()
				}
				run := func(what string, record func(r *Recorder) func(int)) *Recorder {
					r := mk()
					rec := record(r)
					for i := 1; i <= calls; i++ {
						rec(i)
						lockFree(r, what, i)
						r.SlotSnapshot(sim.Time(i) * sim.Time(sim.Millisecond))
						lockFree(r, "SlotSnapshot after "+what, i)
					}
					return r
				}
				named := run("named", func(r *Recorder) func(int) {
					return func(i int) { k.named(r, i) }
				})
				handle := run("handle", k.handle)

				if m.nil {
					if named.Metrics() != nil || handle.MeterReport() != nil {
						t.Fatal("nil recorder grew state")
					}
					return
				}
				if a, b := renderRegistry(t, named.Metrics()), renderRegistry(t, handle.Metrics()); a != b {
					t.Fatalf("named and handle forms differ:\nnamed:\n%s\nhandle:\n%s", a, b)
				}
				for _, c := range []struct {
					what      string
					r         *Recorder
					sectioned bool
				}{{"named", named, k.sectioned}, {"handle", handle, true}} {
					want := map[string]int64{}
					if m.meter {
						want["snapshot"] = calls
						if c.sectioned {
							want["metric"] = calls
						}
					}
					if got := meterRecords(c.r); !maps.Equal(got, want) {
						t.Fatalf("%s form meter records %v, want %v", c.what, got, want)
					}
				}
			})
		}
	}
}

// renderRegistry is every registry exposition in one string.
func renderRegistry(t *testing.T, reg *Registry) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(reg.Summary())
	if err := WriteMetricsCSV(&b, reg); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotsCSV(&b, reg); err != nil {
		t.Fatal(err)
	}
	writePrometheus(&b, reg)
	return b.String()
}

// meterRecords maps each metered category to its record count.
func meterRecords(r *Recorder) map[string]int64 {
	out := map[string]int64{}
	if rep := r.MeterReport(); rep != nil {
		for _, c := range rep.Categories {
			out[c.Category] = c.Records
		}
	}
	return out
}

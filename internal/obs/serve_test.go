package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"urllcsim/internal/sim"
)

// scrape fetches path from the test server and returns the body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// stripLe removes the le="…" pair from a {…} label string, leaving the
// series identity shared by a histogram's buckets, _sum and _count.
func stripLe(labels string) string {
	i := strings.Index(labels, "le=\"")
	if i < 0 {
		return labels
	}
	j := strings.IndexByte(labels[i+4:], '"')
	rest := labels[i+4+j+1:]
	head := labels[:i]
	head = strings.TrimSuffix(head, ",")
	if strings.HasPrefix(rest, ",") && strings.HasSuffix(head, "{") {
		rest = rest[1:]
	}
	if head == "{" && rest == "}" {
		return ""
	}
	return head + rest
}

// checkPrometheusText validates the exposition body: every sample line
// parses, histogram buckets are cumulative and monotone in le, and each
// _count matches the +Inf bucket.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	type histState struct {
		lastLe    float64
		lastCum   int64
		infCount  int64
		count     int64
		sawInf    bool
		sawCount  bool
		bucketSum int64
	}
	hists := map[string]*histState{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		metric, val := line[:sp], line[sp+1:]
		fval, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name, labels := metric, ""
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			name, labels = metric[:i], metric[i:]
		}
		for _, r := range name {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':') {
				t.Fatalf("invalid metric name char %q in %q", r, name)
			}
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			// One histogram series per label set (family rows share a name),
			// so the le-monotonicity state is keyed by the non-le labels.
			base := strings.TrimSuffix(name, "_bucket") + stripLe(labels)
			h := hists[base]
			if h == nil {
				h = &histState{lastLe: -1}
				hists[base] = h
			}
			leStr := metric[strings.Index(metric, "le=\"")+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			cum := int64(fval)
			if leStr == "+Inf" {
				h.sawInf = true
				h.infCount = cum
				break
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", metric, err)
			}
			if le <= h.lastLe {
				t.Fatalf("histogram %s: le %v not increasing (prev %v)", base, le, h.lastLe)
			}
			if cum < h.lastCum {
				t.Fatalf("histogram %s: cumulative count decreased (%d after %d)", base, cum, h.lastCum)
			}
			h.lastLe, h.lastCum = le, cum
		case strings.HasSuffix(name, "_count"):
			base := strings.TrimSuffix(name, "_count") + labels
			if h := hists[base]; h != nil {
				h.sawCount = true
				h.count = int64(fval)
			}
		}
	}
	for base, h := range hists {
		if !h.sawInf {
			t.Fatalf("histogram %s missing +Inf bucket", base)
		}
		if h.sawCount && h.infCount != h.count {
			t.Fatalf("histogram %s: +Inf bucket %d ≠ _count %d", base, h.infCount, h.count)
		}
		if h.lastCum > h.infCount {
			t.Fatalf("histogram %s: finite buckets (%d) exceed +Inf (%d)", base, h.lastCum, h.infCount)
		}
	}
}

// TestLiveHandlerExposition: a scrape of a populated registry is valid
// Prometheus text and carries the counters, gauges and histograms; the
// debug endpoints respond.
func TestLiveHandlerExposition(t *testing.T) {
	rec := NewRecorder()
	rec.Count("harq.retx", 3)
	rec.Count("sched.slots_planned", 41)
	rec.SetGauge("rlc.dl.queue_depth", 2)
	lat := rec.TimingH("lat.ul")
	for i := 1; i <= 100; i++ {
		lat.Observe(sim.Duration(i) * 10 * sim.Microsecond)
	}
	srv := httptest.NewServer(LiveHandler(rec))
	defer srv.Close()

	code, body := scrape(t, srv.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE urllcsim_harq_retx_total counter",
		"urllcsim_harq_retx_total 3",
		"urllcsim_sched_slots_planned_total 41",
		"# TYPE urllcsim_rlc_dl_queue_depth gauge",
		"urllcsim_rlc_dl_queue_depth 2",
		"# TYPE urllcsim_lat_ul_seconds histogram",
		"urllcsim_lat_ul_seconds_bucket{le=\"+Inf\"} 100",
		"urllcsim_lat_ul_seconds_count 100",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	checkPrometheusText(t, body)

	if code, _ := scrape(t, srv.URL, "/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if code, _ := scrape(t, srv.URL, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, body := scrape(t, srv.URL, "/debug/vars"); code == http.StatusOK && !strings.Contains(body, "memstats") {
		t.Fatal("/debug/vars missing memstats")
	}
}

// TestLiveScrapeConcurrentWithRecording hammers the scrape path while a
// writer goroutine drives the registry — under -race this proves the live
// lock covers every counter/gauge/timing/family/snapshot mutation the node
// layer performs mid-run, named or through a handle.
func TestLiveScrapeConcurrentWithRecording(t *testing.T) {
	rec := NewRecorder()
	srv := httptest.NewServer(LiveHandler(rec)) // installs the live lock
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		// The node layer records through handles, so they run here too.
		byUE := CounterFamH[PktEvent](rec, "pkt.by_ue")
		latByUE := HistFamH[UEDir](rec, "lat.by_ue")
		proc := rec.TimingH("gnb.proc.mac")
		latUL := rec.TimingH("lat.ul")
		for i := 0; i < 20000; i++ {
			rec.Count("pkt.delivered", 1)
			byUE.Add(PktEvent{UE: i % 4, Dir: DirUL, Event: FateDelivered}, 1)
			latByUE.Observe(UEDir{UE: i % 4, Dir: DirUL}, sim.Duration(100+i%400)*sim.Microsecond)
			proc.Observe(sim.Duration(i%50) * sim.Microsecond)
			latUL.Observe(sim.Duration(100+i%400) * sim.Microsecond)
			rec.SetGauge("harq.inflight", float64(i%4))
			if i%100 == 0 {
				rec.SlotSnapshot(sim.Time(i) * 500000)
			}
			// Span/outcome logs are exercised too: they must not race with
			// scrapes because the handler never reads them.
			rec.PacketSpan(i, DirUL, LayerPHY, "x", 0, sim.Time(i), sim.Microsecond)
			rec.Outcome(Outcome{Packet: i, Dir: DirUL, Delivered: true, Latency: sim.Microsecond, Attempts: 1})
		}
	}()
	scrapes := 0
	for {
		select {
		case <-done:
			wg.Wait()
			if scrapes == 0 {
				t.Fatal("no scrape overlapped the run")
			}
			_, body := scrape(t, srv.URL, "/metrics")
			checkPrometheusText(t, body)
			if !strings.Contains(body, "urllcsim_pkt_delivered_total 20000") {
				t.Fatalf("final scrape missing total:\n%s", body)
			}
			return
		default:
			code, body := scrape(t, srv.URL, "/metrics")
			if code != http.StatusOK {
				t.Fatalf("mid-run scrape status %d", code)
			}
			checkPrometheusText(t, body)
			scrapes++
		}
	}
}

// TestServeBindsAndCloses: Serve resolves ":0", answers, and releases the
// port on Close.
func TestServeBindsAndCloses(t *testing.T) {
	rec := NewRecorder()
	rec.Count("pkt.delivered", 7)
	s, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	code, body := scrape(t, fmt.Sprintf("http://%s", s.Addr), "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "urllcsim_pkt_delivered_total 7") {
		t.Fatalf("scrape over TCP failed: %d\n%s", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilServer *LiveServer
	if err := nilServer.Close(); err != nil {
		t.Fatal("nil LiveServer.Close must be a no-op")
	}
}

package analyze

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"urllcsim/internal/metrics"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/jsonl"
)

// The KPI pass turns per-packet outcomes into the per-UE indicators the
// URLLC literature reports alongside raw latency: Age of Information (how
// stale the freshest delivered sample is, the metric that exposes schedulers
// which are fast on average but starve individual flows), Jain's fairness
// index over per-UE throughput and latency, and reliability CCDF curves —
// P(latency > t) down to the 1e-5 regime the paper's "five nines" target
// lives in. Everything is computed from obs.Outcome records, so the pass
// runs identically in-process (straight off a Recorder) and offline (off a
// re-ingested urllcsim-trace/v1 file).

// KPISchema versions the KPI JSONL dialect. Its meta line uses kind
// "kpi_meta" so trace readers skip KPI files instead of rejecting them.
const KPISchema = "urllcsim-kpi/v1"

// UEKPI is one UE's indicators in one direction. Times are µs, the paper's
// unit.
type UEKPI struct {
	UE        int
	Dir       obs.Dir
	Delivered int
	Lost      int
	// Reliability is delivered/(delivered+lost).
	Reliability float64
	MeanUs      float64
	P50Us       float64
	P99Us       float64
	MaxUs       float64
	// Age of Information over the delivered sequence (sawtooth between
	// generation instants and delivery instants). HasAoI is false when the
	// trace predates outcome End stamps or the UE delivered nothing.
	HasAoI    bool
	AoIPeakUs float64
	AoIMeanUs float64
}

// CCDFPoint is one point of a reliability curve: P(latency > LeUs).
type CCDFPoint struct {
	LeUs float64
	CCDF float64
}

// DirKPI aggregates one direction across UEs.
type DirKPI struct {
	Dir       obs.Dir
	UEs       int
	Delivered int
	Lost      int
	// JainThroughput is Jain's fairness index over per-UE delivered counts;
	// JainLatency over per-UE mean latencies (UEs with no deliveries are
	// excluded from the latency index). 1.0 is perfectly fair.
	JainThroughput float64
	JainLatency    float64
	// CCDF is the direction's reliability curve, one point per occupied
	// latency bucket, ascending in LeUs.
	CCDF []CCDFPoint
}

// KPIReport is the full KPI pass output.
type KPIReport struct {
	Label string
	UEs   []UEKPI
	Dirs  []DirKPI
}

// jain computes Jain's fairness index (Σx)²/(n·Σx²); 1 when all x equal,
// →1/n under maximal skew. By convention an all-zero (or empty) population
// is perfectly fair.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// aoiDelivery is one delivered packet on the AoI timeline.
type aoiDelivery struct {
	gen, at float64 // generation and delivery instants, µs
}

// computeAoI walks the delivery sequence as an AoI sawtooth: the age at the
// destination grows linearly and drops to (delivery − generation) whenever a
// fresher sample arrives. Deliveries carrying stale information (generated
// before the freshest already-delivered sample) do not reset the age.
// Returns peak age, time-averaged age and ok=false when no informative
// delivery exists.
func computeAoI(ds []aoiDelivery) (peakUs, meanUs float64, ok bool) {
	slices.SortFunc(ds, func(a, b aoiDelivery) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.gen, b.gen)
	})
	first := true
	var lastGen, lastAt, integral float64
	for _, d := range ds {
		if d.at <= d.gen {
			continue // malformed (zero-latency or negative) — skip
		}
		if first {
			peakUs = d.at - d.gen
			lastGen, lastAt = d.gen, d.at
			first = false
			continue
		}
		if d.gen <= lastGen {
			continue // stale sample: age does not reset
		}
		// Age just before this delivery: time since the previous freshest
		// sample was generated.
		preAge := d.at - lastGen
		if preAge > peakUs {
			peakUs = preAge
		}
		// Sawtooth area between the two deliveries: age ramps from
		// (lastAt − lastGen) to preAge.
		lo := lastAt - lastGen
		integral += (preAge*preAge - lo*lo) / 2
		lastGen, lastAt = d.gen, d.at
	}
	if first {
		return 0, 0, false
	}
	if span := lastAt - (ds[0].at); span > 0 && integral > 0 {
		meanUs = integral / span
	} else {
		// Single informative delivery: the only age ever observed is its
		// own latency.
		meanUs = peakUs
	}
	return peakUs, meanUs, true
}

// ueDirKey groups outcomes.
type ueDirKey struct {
	dir obs.Dir
	ue  int
}

// ComputeKPI runs the KPI pass over a trace. Outcomes are grouped by
// (direction, UE); ordering of the output is (direction, UE) ascending, so
// the report is deterministic for any outcome order in the input.
func ComputeKPI(tr *Trace, label string) *KPIReport {
	rep := &KPIReport{Label: label}

	type group struct {
		delivered, lost int
		hist            *metrics.LogHistogram
		aoi             []aoiDelivery
	}
	groups := map[ueDirKey]*group{}
	var keys []ueDirKey
	for o := range tr.Outcomes.All() {
		k := ueDirKey{dir: o.Dir, ue: o.UE}
		g, ok := groups[k]
		if !ok {
			g = &group{hist: metrics.NewLogHistogram()}
			groups[k] = g
			keys = append(keys, k)
		}
		if !o.Delivered {
			g.lost++
			continue
		}
		g.delivered++
		g.hist.AddDuration(o.Latency)
		if o.End > 0 {
			end := o.End.Micros()
			g.aoi = append(g.aoi, aoiDelivery{gen: end - float64(o.Latency)/1000, at: end})
		}
	}
	slices.SortFunc(keys, func(a, b ueDirKey) int {
		if c := cmp.Compare(a.dir, b.dir); c != 0 {
			return c
		}
		return cmp.Compare(a.ue, b.ue)
	})

	// One accumulator per direction: its UEs' throughputs and mean
	// latencies for the Jain indices, and the merge of their latency
	// histograms (exact) for the CCDF.
	type dirAcc struct {
		kpi      DirKPI
		thr, lat []float64
		hist     *metrics.LogHistogram
	}
	perDir := map[obs.Dir]*dirAcc{}
	var dirOrder []obs.Dir
	for _, k := range keys {
		g := groups[k]
		u := UEKPI{
			UE: k.ue, Dir: k.dir, Delivered: g.delivered, Lost: g.lost,
		}
		if total := g.delivered + g.lost; total > 0 {
			u.Reliability = float64(g.delivered) / float64(total)
		}
		if g.delivered > 0 {
			u.MeanUs = g.hist.Mean() / 1000
			u.P50Us = float64(g.hist.Quantile(0.5)) / 1000
			u.P99Us = float64(g.hist.Quantile(0.99)) / 1000
			u.MaxUs = float64(g.hist.Max()) / 1000
		}
		if peak, mean, ok := computeAoI(g.aoi); ok {
			u.HasAoI, u.AoIPeakUs, u.AoIMeanUs = true, peak, mean
		}
		rep.UEs = append(rep.UEs, u)

		a, ok := perDir[k.dir]
		if !ok {
			a = &dirAcc{kpi: DirKPI{Dir: k.dir}, hist: metrics.NewLogHistogram()}
			perDir[k.dir] = a
			dirOrder = append(dirOrder, k.dir)
		}
		a.kpi.UEs++
		a.kpi.Delivered += g.delivered
		a.kpi.Lost += g.lost
		a.thr = append(a.thr, float64(g.delivered))
		if g.delivered > 0 {
			a.lat = append(a.lat, u.MeanUs)
		}
		a.hist.Merge(g.hist)
	}
	slices.Sort(dirOrder)
	for _, dir := range dirOrder {
		a := perDir[dir]
		d := &a.kpi
		d.JainThroughput = jain(a.thr)
		d.JainLatency = jain(a.lat)
		if h := a.hist; h.N() > 0 {
			n := float64(h.N())
			h.Buckets(func(upperNs, cum int64) {
				d.CCDF = append(d.CCDF, CCDFPoint{
					LeUs: float64(upperNs) / 1000,
					CCDF: (n - float64(cum)) / n,
				})
			})
		}
		rep.Dirs = append(rep.Dirs, *d)
	}
	return rep
}

// ---------------------------------------------------------------------------
// urllcsim-kpi/v1 JSONL dialect.
// ---------------------------------------------------------------------------

// jsonKPIMeta, jsonUEKPI, jsonDirKPI and jsonCCDF are the wire forms
// ReadKPIJSONL decodes; WriteKPIJSONL appends the same fields directly.
type jsonKPIMeta struct {
	Kind   string `json:"kind"` // "kpi_meta"
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
}

type jsonUEKPI struct {
	Kind        string  `json:"kind"` // "ue_kpi"
	UE          int     `json:"ue"`
	Dir         string  `json:"dir"`
	Delivered   int     `json:"delivered"`
	Lost        int     `json:"lost"`
	Reliability float64 `json:"reliability"`
	MeanUs      float64 `json:"mean_us"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
	HasAoI      bool    `json:"has_aoi"`
	AoIPeakUs   float64 `json:"aoi_peak_us,omitempty"`
	AoIMeanUs   float64 `json:"aoi_mean_us,omitempty"`
}

type jsonDirKPI struct {
	Kind           string  `json:"kind"` // "kpi_dir"
	Dir            string  `json:"dir"`
	UEs            int     `json:"ues"`
	Delivered      int     `json:"delivered"`
	Lost           int     `json:"lost"`
	JainThroughput float64 `json:"jain_throughput"`
	JainLatency    float64 `json:"jain_latency"`
}

type jsonCCDF struct {
	Kind string  `json:"kind"` // "ccdf"
	Dir  string  `json:"dir"`
	LeUs float64 `json:"le_us"`
	CCDF float64 `json:"ccdf"`
}

// kpiLine assembles one KPI JSONL line in a reused buffer. Keys are passed
// as their full `,"name":` fragments. err keeps the first NaN or ±Inf, which
// has no JSON form (encoding/json refuses it too).
type kpiLine struct {
	b   []byte
	err error
}

func (l *kpiLine) begin(kind string) {
	l.b = append(l.b[:0], `{"kind":`...)
	l.b = jsonl.AppendString(l.b, kind)
}

func (l *kpiLine) str(key, v string) {
	l.b = append(l.b, key...)
	l.b = jsonl.AppendString(l.b, v)
}

func (l *kpiLine) int(key string, v int) {
	l.b = append(l.b, key...)
	l.b = jsonl.AppendInt(l.b, v)
}

func (l *kpiLine) float(key string, v float64) {
	var err error
	l.b = append(l.b, key...)
	if l.b, err = jsonl.AppendFloat(l.b, v); l.err == nil {
		l.err = err
	}
}

// end closes the line and writes it to bw, returning the line's or the
// write's error.
func (l *kpiLine) end(bw *bufio.Writer) error {
	if l.err != nil {
		return l.err
	}
	l.b = append(l.b, "}\n"...)
	_, err := bw.Write(l.b)
	return err
}

// WriteKPIJSONL writes a KPI report as one urllcsim-kpi/v1 JSONL stream:
// kpi_meta, then ue_kpi rows, then kpi_dir rows, then ccdf points. Every
// line is assembled in one reused buffer, so the writer's allocations do
// not grow with the report.
func WriteKPIJSONL(w io.Writer, rep *KPIReport) error {
	bw := bufio.NewWriter(w)
	l := kpiLine{b: make([]byte, 0, 512)}
	l.begin("kpi_meta")
	l.str(`,"schema":`, KPISchema)
	if rep.Label != "" {
		l.str(`,"label":`, rep.Label)
	}
	if err := l.end(bw); err != nil {
		return err
	}
	for i := range rep.UEs {
		u := &rep.UEs[i]
		l.begin("ue_kpi")
		l.int(`,"ue":`, u.UE)
		l.str(`,"dir":`, u.Dir.String())
		l.int(`,"delivered":`, u.Delivered)
		l.int(`,"lost":`, u.Lost)
		l.float(`,"reliability":`, u.Reliability)
		l.float(`,"mean_us":`, u.MeanUs)
		l.float(`,"p50_us":`, u.P50Us)
		l.float(`,"p99_us":`, u.P99Us)
		l.float(`,"max_us":`, u.MaxUs)
		l.b = append(l.b, `,"has_aoi":`...)
		l.b = strconv.AppendBool(l.b, u.HasAoI)
		if u.AoIPeakUs != 0 { // omitempty, as in jsonUEKPI
			l.float(`,"aoi_peak_us":`, u.AoIPeakUs)
		}
		if u.AoIMeanUs != 0 {
			l.float(`,"aoi_mean_us":`, u.AoIMeanUs)
		}
		if err := l.end(bw); err != nil {
			return err
		}
	}
	for i := range rep.Dirs {
		d := &rep.Dirs[i]
		l.begin("kpi_dir")
		l.str(`,"dir":`, d.Dir.String())
		l.int(`,"ues":`, d.UEs)
		l.int(`,"delivered":`, d.Delivered)
		l.int(`,"lost":`, d.Lost)
		l.float(`,"jain_throughput":`, d.JainThroughput)
		l.float(`,"jain_latency":`, d.JainLatency)
		if err := l.end(bw); err != nil {
			return err
		}
	}
	for i := range rep.Dirs {
		d := &rep.Dirs[i]
		for _, p := range d.CCDF {
			l.begin("ccdf")
			l.str(`,"dir":`, d.Dir.String())
			l.float(`,"le_us":`, p.LeUs)
			l.float(`,"ccdf":`, p.CCDF)
			if err := l.end(bw); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// KPIFile is a re-ingested KPI JSONL stream.
type KPIFile struct {
	HasMeta bool
	Report  KPIReport
}

// ReadKPIJSONL parses a KPI stream written by WriteKPIJSONL. Unknown kinds
// are skipped; an unknown KPI schema version and a second kpi_dir line for
// one direction are one-line errors. A direction's ccdf points may come
// before its kpi_dir line.
func ReadKPIJSONL(r io.Reader) (*KPIFile, error) {
	f := &KPIFile{}
	dirIdx := map[obs.Dir]int{}
	hasRow := map[obs.Dir]bool{}
	// dirAt returns the report's entry for dir, opening it at the first line
	// that names dir, whichever kind that is.
	dirAt := func(dir obs.Dir) *DirKPI {
		i, ok := dirIdx[dir]
		if !ok {
			i = len(f.Report.Dirs)
			dirIdx[dir] = i
			f.Report.Dirs = append(f.Report.Dirs, DirKPI{Dir: dir})
		}
		return &f.Report.Dirs[i]
	}
	err := jsonl.Read(r, "kpi", map[string]jsonl.Kind{
		"kpi_meta": {Schema: KPISchema, Decode: func(line []byte) error {
			var meta jsonKPIMeta
			if err := json.Unmarshal(line, &meta); err != nil {
				return err
			}
			f.HasMeta = true
			if f.Report.Label == "" {
				f.Report.Label = meta.Label
			}
			return nil
		}},
		"ue_kpi": {Decode: func(line []byte) error {
			var ju jsonUEKPI
			if err := json.Unmarshal(line, &ju); err != nil {
				return err
			}
			dir, ok := obs.ParseDir(ju.Dir)
			if !ok {
				return fmt.Errorf("unknown dir %q", ju.Dir)
			}
			f.Report.UEs = append(f.Report.UEs, UEKPI{
				UE: ju.UE, Dir: dir, Delivered: ju.Delivered, Lost: ju.Lost,
				Reliability: ju.Reliability, MeanUs: ju.MeanUs, P50Us: ju.P50Us,
				P99Us: ju.P99Us, MaxUs: ju.MaxUs,
				HasAoI: ju.HasAoI, AoIPeakUs: ju.AoIPeakUs, AoIMeanUs: ju.AoIMeanUs,
			})
			return nil
		}},
		"kpi_dir": {Decode: func(line []byte) error {
			var jd jsonDirKPI
			if err := json.Unmarshal(line, &jd); err != nil {
				return err
			}
			dir, ok := obs.ParseDir(jd.Dir)
			if !ok {
				return fmt.Errorf("unknown dir %q", jd.Dir)
			}
			if hasRow[dir] {
				return fmt.Errorf("second kpi_dir line for dir %s", dir)
			}
			hasRow[dir] = true
			d := dirAt(dir)
			d.UEs, d.Delivered, d.Lost = jd.UEs, jd.Delivered, jd.Lost
			d.JainThroughput, d.JainLatency = jd.JainThroughput, jd.JainLatency
			return nil
		}},
		"ccdf": {Decode: func(line []byte) error {
			var jc jsonCCDF
			if err := json.Unmarshal(line, &jc); err != nil {
				return err
			}
			dir, ok := obs.ParseDir(jc.Dir)
			if !ok {
				return fmt.Errorf("unknown dir %q", jc.Dir)
			}
			d := dirAt(dir)
			d.CCDF = append(d.CCDF, CCDFPoint{LeUs: jc.LeUs, CCDF: jc.CCDF})
			return nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// Rendering: Markdown section and CSV exports.
// ---------------------------------------------------------------------------

// ccdfTargets are the reliability levels the Markdown excerpt quotes: the
// latency bound at which the violation probability first drops to each
// level, down to the URLLC 1e-5 regime.
var ccdfTargets = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}

// LatencyAtCCDF returns the smallest recorded latency bound whose CCDF is
// ≤ target, and ok=false when the curve never gets there (not enough
// samples or a heavy tail).
func LatencyAtCCDF(points []CCDFPoint, target float64) (float64, bool) {
	for _, p := range points {
		if p.CCDF <= target {
			return p.LeUs, true
		}
	}
	return 0, false
}

// WriteKPIMarkdown renders the report as the "Per-UE KPIs" section.
func WriteKPIMarkdown(w io.Writer, rep *KPIReport) error {
	label := rep.Label
	if label == "" {
		label = "(unlabeled)"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "\n## Per-UE KPIs — %s\n\n", label)
	if len(rep.UEs) == 0 {
		fmt.Fprintln(bw, "- no outcome records")
		return bw.Flush()
	}
	for _, d := range rep.Dirs {
		fmt.Fprintf(bw, "### %s\n\n", d.Dir)
		fmt.Fprintf(bw, "- %d UE(s), delivered %d, lost %d, Jain fairness: throughput %.4f, latency %.4f\n\n",
			d.UEs, d.Delivered, d.Lost, d.JainThroughput, d.JainLatency)
		fmt.Fprintf(bw, "| UE | delivered | lost | reliability | mean (µs) | p99 (µs) | AoI peak (µs) | AoI mean (µs) |\n")
		fmt.Fprintf(bw, "|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, u := range rep.UEs {
			if u.Dir != d.Dir {
				continue
			}
			aoiPeak, aoiMean := "—", "—"
			if u.HasAoI {
				aoiPeak = fmt.Sprintf("%.2f", u.AoIPeakUs)
				aoiMean = fmt.Sprintf("%.2f", u.AoIMeanUs)
			}
			fmt.Fprintf(bw, "| %d | %d | %d | %.5f | %.2f | %.2f | %s | %s |\n",
				u.UE, u.Delivered, u.Lost, u.Reliability, u.MeanUs, u.P99Us, aoiPeak, aoiMean)
		}
		if len(d.CCDF) > 0 {
			fmt.Fprintf(bw, "\nReliability (latency bound at P(latency > t) ≤ target):\n\n")
			fmt.Fprintf(bw, "| target | latency bound (µs) |\n|---:|---:|\n")
			for _, target := range ccdfTargets {
				if le, ok := LatencyAtCCDF(d.CCDF, target); ok {
					fmt.Fprintf(bw, "| %.0e | %.2f |\n", target, le)
				} else {
					fmt.Fprintf(bw, "| %.0e | not reached |\n", target)
				}
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteKPICSV writes the per-UE tables of one or more reports as CSV, one
// row per (label, dir, ue).
func WriteKPICSV(w io.Writer, reps []*KPIReport) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "label,dir,ue,delivered,lost,reliability,mean_us,p50_us,p99_us,max_us,aoi_peak_us,aoi_mean_us"); err != nil {
		return err
	}
	for _, rep := range reps {
		for _, u := range rep.UEs {
			aoiPeak, aoiMean := "", ""
			if u.HasAoI {
				aoiPeak = fmt.Sprintf("%.3f", u.AoIPeakUs)
				aoiMean = fmt.Sprintf("%.3f", u.AoIMeanUs)
			}
			fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%.3f,%s,%s\n",
				csvField(rep.Label), u.Dir, u.UE, u.Delivered, u.Lost, u.Reliability,
				u.MeanUs, u.P50Us, u.P99Us, u.MaxUs, aoiPeak, aoiMean)
		}
	}
	return bw.Flush()
}

// WriteCCDFCSV writes the reliability curves of one or more reports as CSV:
// one row per occupied latency bucket per (label, direction), ascending.
func WriteCCDFCSV(w io.Writer, reps []*KPIReport) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "label,dir,latency_le_us,ccdf"); err != nil {
		return err
	}
	for _, rep := range reps {
		for _, d := range rep.Dirs {
			for _, p := range d.CCDF {
				fmt.Fprintf(bw, "%s,%s,%.3f,%.9g\n", csvField(rep.Label), d.Dir, p.LeUs, p.CCDF)
			}
		}
	}
	return bw.Flush()
}

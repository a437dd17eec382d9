package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"urllcsim/internal/sim"
)

// The tests below pin the sorted-latency view the Fig. 6, X1 and X6 panels
// read: the floor-index nearest-rank quantile and its edges, the strict
// share below a bound, the exact mean, and Fig. 6's binning and rows. Each
// case sorts its samples, applies read and compares the result exactly.

const latMs = sim.Millisecond

type latencyCase struct {
	name    string
	samples []sim.Duration
	read    func(latencies) any
	want    any
}

func runLatencyCases(t *testing.T, cases []latencyCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := latencies(slices.Clone(c.samples))
			slices.Sort(l)
			if got := c.read(l); got != c.want {
				t.Fatalf("over %v: got %#v, want %#v", c.samples, got, c.want)
			}
		})
	}
}

func readQuantile(q float64) func(latencies) any {
	return func(l latencies) any { return l.quantileMs(q) }
}

func readShareBelow(d sim.Duration) func(latencies) any {
	return func(l latencies) any { return l.shareBelow(d) }
}

func readMean(l latencies) any { return l.meanMs() }

func fig6Rows(l latencies) []string { return strings.SplitAfter(l.fig6ASCII(8), "\n") }

// readRow returns Fig. 6 row i as printed, "" when there is no such row
// (index fig6Bins is the overflow row).
func readRow(i int) func(latencies) any {
	return func(l latencies) any {
		if r := fig6Rows(l); i < len(r) {
			return r[i]
		}
		return ""
	}
}

// readBinShare returns the probability printed at the end of row i.
func readBinShare(i int) func(latencies) any {
	return func(l latencies) any {
		f := strings.Fields(fig6Rows(l)[i])
		return f[len(f)-1]
	}
}

// oneToHundredUs returns 1, 2, …, 100 µs.
func oneToHundredUs() []sim.Duration {
	d := make([]sim.Duration, 100)
	for i := range d {
		d[i] = sim.Duration(i+1) * sim.Microsecond
	}
	return d
}

// TestLatenciesRankRule pins the floor-index nearest-rank quantile over
// the awkward inputs: empty data, a single sample, heavy duplicates, even
// counts, and out-of-range q.
func TestLatenciesRankRule(t *testing.T) {
	runLatencyCases(t, []latencyCase{
		{"empty", nil, readQuantile(0.5), 0.0},
		{"empty p0", nil, readQuantile(0), 0.0},
		{"single p0", []sim.Duration{7 * latMs}, readQuantile(0), 7.0},
		{"single p50", []sim.Duration{7 * latMs}, readQuantile(0.5), 7.0},
		{"single p100", []sim.Duration{7 * latMs}, readQuantile(1), 7.0},
		{"negative p clamps to min", []sim.Duration{3 * latMs, latMs, 2 * latMs}, readQuantile(-0.2), 1.0},
		{"p above 1 clamps to max", []sim.Duration{3 * latMs, latMs, 2 * latMs}, readQuantile(1.5), 3.0},
		{"even count takes lower middle", []sim.Duration{latMs, 2 * latMs, 3 * latMs, 4 * latMs}, readQuantile(0.5), 2.0}, // ⌊0.5·3⌋ = 1
		{"odd count exact middle", []sim.Duration{latMs, 2 * latMs, 3 * latMs}, readQuantile(0.5), 2.0},
		{"all duplicates", []sim.Duration{5 * latMs, 5 * latMs, 5 * latMs, 5 * latMs}, readQuantile(0.99), 5.0},
		{"duplicates at tail", []sim.Duration{latMs, 9 * latMs, 9 * latMs, 9 * latMs}, readQuantile(0.5), 9.0},
		{"p99 of 1..100", oneToHundredUs(), readQuantile(0.99), 0.099}, // ⌊0.99·99⌋ = 98 → 99 µs
		{"unsorted input", []sim.Duration{30 * latMs, 10 * latMs, 20 * latMs}, readQuantile(0), 10.0},
	})
}

// TestLatenciesQuantiles pins the summary statistics over 1..100 µs and
// the strictness of the share below a bound.
func TestLatenciesQuantiles(t *testing.T) {
	runLatencyCases(t, []latencyCase{
		{"p0 of 1..100", oneToHundredUs(), readQuantile(0), 0.001},
		{"p50 of 1..100", oneToHundredUs(), readQuantile(0.5), 0.05}, // ⌊0.5·99⌋ = 49 → 50 µs
		{"p100 of 1..100", oneToHundredUs(), readQuantile(1), 0.1},
		{"share below 11 us of 1..100", oneToHundredUs(), readShareBelow(11 * sim.Microsecond), 0.1},
		{"mean of 1..100", oneToHundredUs(), readMean, 0.0505},
		{"1 ms is not below 1 ms", []sim.Duration{latMs}, readShareBelow(latMs), 0.0},
		{"share strictly below", []sim.Duration{latMs - 1, latMs, 2 * latMs, 2 * latMs}, readShareBelow(latMs), 0.25},
		{"mean", []sim.Duration{latMs, 2 * latMs}, readMean, 1.5},
	})
}

// TestLatenciesEmpty pins that an empty panel reads 0 everywhere.
func TestLatenciesEmpty(t *testing.T) {
	runLatencyCases(t, []latencyCase{
		{"empty mean", nil, readMean, 0.0},
		{"empty share below", nil, readShareBelow(latMs), 0.0},
		{"empty rows are zero", nil, readRow(0), "   0.12 |          0.0000\n"},
	})
}

// TestLatenciesBinning pins Fig. 6's 0.25 ms bins, its overflow row and
// its bars.
func TestLatenciesBinning(t *testing.T) {
	cases := []latencyCase{
		{"8 ms is overflow", []sim.Duration{8 * latMs}, readRow(fig6Bins), ">  8.00 | overflow 1 (1.0000)\n"},
		{"just under 8 ms is the last bin", []sim.Duration{8*latMs - 1}, readBinShare(fig6Bins - 1), "1.0000"},
		{"no overflow row without overflow", []sim.Duration{8*latMs - 1}, readRow(fig6Bins), ""},
		{"bars scale to the tallest bin", []sim.Duration{1100 * sim.Microsecond, 1200 * sim.Microsecond, 2100 * sim.Microsecond},
			readRow(8), "   2.12 | ####     0.3333\n"},
		{"tallest bin has the full bar", []sim.Duration{1100 * sim.Microsecond, 1200 * sim.Microsecond, 2100 * sim.Microsecond},
			readRow(4), "   1.12 | ######## 0.6667\n"},
	}
	for k := range fig6Bins {
		cases = append(cases, latencyCase{fmt.Sprintf("%.2f ms lands in bin %d", float64(k)*0.25, k),
			[]sim.Duration{sim.Duration(k) * 250 * sim.Microsecond}, readBinShare(k), "1.0000"})
	}
	runLatencyCases(t, cases)
}

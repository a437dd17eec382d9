package experiments

import (
	"fmt"
	"slices"
	"strings"

	"urllcsim/internal/node"
	"urllcsim/internal/sim"
)

// latencies is one fixed-size panel's delivered latencies (Fig. 6, X1, X6),
// sorted ascending. The panels keep every sample, so one sorted slice
// answers each read exactly: a quantile is an index, a share below a bound
// is a binary search. Every value is non-negative.
type latencies []sim.Duration

// deliveredLatencies gathers the delivered packets' one-way latencies of
// every shard in shard order and sorts them once.
func deliveredLatencies(systems []*node.System) latencies {
	var l latencies
	for _, s := range systems {
		for _, r := range s.Results() {
			if r.Delivered {
				l = append(l, r.Latency)
			}
		}
	}
	slices.Sort(l)
	return l
}

// meanMs is the sample mean in ms, 0 when empty. The integer sum is exact
// and the one division rounds it correctly.
func (l latencies) meanMs() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum int64
	for _, d := range l {
		sum += int64(d)
	}
	return float64(sum) / (1e6 * float64(len(l)))
}

// quantileMs returns the q-quantile in ms by the floor-index nearest-rank
// rule: the sample at index ⌊q·(n−1)⌋. No interpolation, so q = 0.5 over an
// even count is the lower middle sample. q ≤ 0 gives the minimum, q ≥ 1 the
// maximum, an empty panel 0.
func (l latencies) quantileMs(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := len(l) - 1
	if q <= 0 {
		i = 0
	} else if q < 1 {
		i = int(q * float64(len(l)-1))
	}
	return float64(l[i]) / 1e6
}

// shareBelow returns the share of samples strictly below d — e.g. the
// "sub-millisecond 4.4 % of the time" statistic for mmWave; 0 when empty.
func (l latencies) shareBelow(d sim.Duration) float64 {
	if len(l) == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(l, d)
	return float64(i) / float64(len(l))
}

// Fig. 6's axis: fig6Bins bins of 0.25 ms over [0, fig6AxisMs) ms. A
// sample at or beyond the axis end is overflow.
const (
	fig6AxisMs = 8.0
	fig6Bins   = 32
)

// fig6ASCII renders the panel as rows of "bin centre | bar probability",
// bars proportional to the tallest bin, plus an overflow row when any
// sample reached the axis end (Fig. 6 in a terminal).
func (l latencies) fig6ASCII(width int) string {
	var counts [fig6Bins]int64
	var overflow int64
	for _, d := range l {
		x := float64(d) / 1e6
		if x >= fig6AxisMs {
			overflow++
			continue
		}
		// x/8 is exact and below 1, so the index stays below fig6Bins.
		counts[int(x/fig6AxisMs*fig6Bins)]++
	}
	prob := func(c int64) float64 {
		if len(l) == 0 {
			return 0
		}
		return float64(c) / float64(len(l))
	}
	maxP := prob(slices.Max(counts[:]))
	var sb strings.Builder
	for i, c := range counts {
		p := prob(c)
		bar := 0
		if maxP > 0 {
			bar = int(p / maxP * float64(width))
		}
		centre := (float64(i) + 0.5) * (fig6AxisMs / fig6Bins)
		fmt.Fprintf(&sb, "%7.2f | %-*s %.4f\n", centre, width, strings.Repeat("#", bar), p)
	}
	if overflow > 0 {
		fmt.Fprintf(&sb, ">%6.2f | overflow %d (%.4f)\n", fig6AxisMs, overflow, prob(overflow))
	}
	return sb.String()
}

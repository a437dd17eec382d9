// Package workload generates the periodic many-machine fleet of the
// Industry-4.0 cell studies. The paper's §7 uniform-within-pattern arrivals
// and exponential inter-arrival gaps are drawn inline where they are offered.
package workload

import (
	"sort"

	"urllcsim/internal/sim"
)

// Packet is one offered unit of traffic.
type Packet struct {
	ID      int
	Arrival sim.Time
	Bytes   int
}

// MachinePacket is one offered unit of traffic attributed to a machine (UE).
type MachinePacket struct {
	UE int
	Packet
}

// Fleet generates the Industry-4.0 many-machine shape of the ns-3 LENA
// configured-grant study: N periodic machines on a common cycle, each with a
// deterministic phase stagger (machine i offset by i·Period/N so the fleet
// never fires in lock-step) plus optional per-machine jitter drawn from a
// forked RNG per machine — the same fleet is generated regardless of how
// many packets are drawn or in what grouping.
type Fleet struct {
	N      int
	Period sim.Duration
	Jitter sim.Duration // uniform in [0, Jitter) around each machine's tick
	Bytes  int

	rngs  []sim.RNG
	cycle int
	next  []MachinePacket // pending packets of the current cycle, sorted
	buf   []MachinePacket // next's backing array, refilled every cycle
	ids   int
}

// NewFleet returns an N-machine periodic fleet. Each machine gets its own
// forked RNG stream so per-machine jitter is independent of N and of draw
// order.
func NewFleet(n int, period, jitter sim.Duration, bytes int, rng *sim.RNG) *Fleet {
	if n <= 0 {
		panic("workload: non-positive fleet size")
	}
	if period <= 0 {
		panic("workload: non-positive period")
	}
	f := &Fleet{N: n, Period: period, Jitter: jitter, Bytes: bytes, buf: make([]MachinePacket, n)}
	f.rngs = make([]sim.RNG, n)
	for i := range f.rngs {
		rng.ForkInto(&f.rngs[i], uint64(i))
	}
	return f
}

// NextMachine returns the fleet's next packet in non-decreasing arrival
// order with its machine attribution.
func (f *Fleet) NextMachine() MachinePacket {
	if len(f.next) == 0 {
		f.fill()
	}
	p := f.next[0]
	f.next = f.next[1:]
	p.ID = f.ids
	f.ids++
	return p
}

// fill generates one full cycle of the fleet and sorts it by arrival.
func (f *Fleet) fill() {
	base := sim.Time(int64(f.cycle) * int64(f.Period))
	f.next = f.buf
	for i := range f.next {
		t := base.Add(sim.Duration(int64(f.Period) * int64(i) / int64(f.N)))
		if f.Jitter > 0 {
			t = t.Add(f.rngs[i].UniformDuration(0, f.Jitter))
		}
		f.next[i] = MachinePacket{UE: i, Packet: Packet{Arrival: t, Bytes: f.Bytes}}
	}
	// Stagger dominates jitter only when Jitter < Period/N; sort so
	// NextMachine honors the non-decreasing-arrival contract in every regime.
	sort.SliceStable(f.next, func(a, b int) bool {
		if f.next[a].Arrival != f.next[b].Arrival {
			return f.next[a].Arrival < f.next[b].Arrival
		}
		return f.next[a].UE < f.next[b].UE
	})
	f.cycle++
}

// TakeFleet drains n packets from a fleet with machine attribution.
func TakeFleet(f *Fleet, n int) []MachinePacket {
	out := make([]MachinePacket, n)
	for i := range out {
		out[i] = f.NextMachine()
	}
	return out
}

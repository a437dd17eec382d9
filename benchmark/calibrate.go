package main

import (
	"crypto/aes"
	"crypto/cipher"
	"slices"
)

// The bench host's speed drifts by ±25 % over tens of seconds, because
// other tenants contend for its cores; raw op times are steady inside one
// run but not between runs. Each timed op is therefore paired with one run
// of a fixed calibration kernel just before it, and op costs are reported
// in cal, the kernel's run time.
//
// The kernel's mix was chosen by measurement on that host: the drift is in
// core throughput, which cache-resident pointer chasing, map updates,
// sorting and AES track (op/cal spread about 2 % over 15 s windows against
// 15 % raw), while a DRAM-latency-bound chase barely drifts and would not.
// It allocates nothing, so it neither triggers nor pays for the ops' garbage
// collections, and it lives in the benchmark, so no simulator change moves
// it.
type calibration struct {
	ring       []calNode // one cycle through a shuffled 256 KiB arena
	m          map[uint64]uint64
	keys, work []uint64
	ctr        cipher.Stream
	buf        []byte
	sum        uint64
}

type calNode struct {
	next *calNode
	v    uint64
	_    [6]uint64 // one node per cache line
}

// calSeconds is the kernel's run time on the reference host (2 shared
// Xeon vCPUs). setup_s reports set-up time in seconds at that host's
// reference speed, set-up in cal times calSeconds, because raw set-up
// medians moved by up to 80 % between two sets of runs there.
const calSeconds = 0.003

const (
	calNodes = 1 << 12
	calHops  = 1 << 15
	calKeys  = 1 << 12
	calMaps  = 1 << 16
	calSorts = 2
	calAES   = 128 // passes over buf
)

func newCalibration() *calibration {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	c := &calibration{
		ring: make([]calNode, calNodes),
		m:    make(map[uint64]uint64, calKeys),
		keys: make([]uint64, 2*calKeys),
		work: make([]uint64, 2*calKeys),
		buf:  make([]byte, 16<<10),
	}
	perm := make([]int, calNodes)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		c.ring[p].next = &c.ring[perm[(i+1)%calNodes]]
		c.ring[p].v = rnd()
	}
	for i := uint64(0); i < calKeys; i++ {
		c.m[i] = rnd()
	}
	for i := range c.keys {
		c.keys[i] = rnd()
	}
	blk, _ := aes.NewCipher(make([]byte, 16)) // a 16-byte key cannot fail
	c.ctr = cipher.NewCTR(blk, make([]byte, aes.BlockSize))
	return c
}

// run executes the kernel once and returns its host time in ns.
func (c *calibration) run() int64 {
	start := clock()
	n, x := &c.ring[0], c.sum|1
	for i := 0; i < calHops; i++ {
		n = n.next
		x += n.v
	}
	for i := 0; i < calMaps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.m[x%calKeys] += x
	}
	for i := 0; i < calSorts; i++ {
		copy(c.work, c.keys)
		slices.Sort(c.work)
	}
	for i := 0; i < calAES; i++ {
		c.ctr.XORKeyStream(c.buf, c.buf)
	}
	c.sum = x + c.work[0] + uint64(c.buf[0])
	return clock() - start
}

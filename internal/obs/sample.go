package obs

// Deterministic head+tail span sampling.
//
// Full tracing retains every span of every packet. At a few thousand spans
// per thousand packets that is cheap; at the scale where URLLC tails appear
// (millions of packets) span retention dominates the observer's footprint
// while most retained spans describe perfectly ordinary journeys. Sampling
// keeps the bulk affordable without giving up the tail:
//
//   - Head (bulk) sampling is a pure function of packet identity: packet id
//     is admitted iff splitmix64(seed XOR id) < rate·2⁶⁴. No mutable sampler
//     state, so the decision is independent of recording order, of worker
//     count in a parallel sweep (each shard derives the same per-packet
//     verdict), and of whether a live telemetry server is attached — the
//     bit-identical-output contract of internal/sweep extends to sampled
//     runs unchanged. Admission at a lower rate is a strict subset of
//     admission at a higher rate (the threshold only moves), so raising the
//     rate only ever adds packets.
//
//   - The tail stays exact by construction. Sampling gates only span
//     *retention*: outcomes are always recorded, and the
//     deadline audit (internal/obs/analyze) derives delivery, loss and
//     deadline verdicts plus the latency histograms from outcomes alone — so
//     miss counts and p99.999 are identical at any sample rate
//     (TestSamplingExactTail). Taps see the full stream *before* the gate:
//     a mounted flight recorder still captures every edge and span, keeping
//     its worst-K exemplars and deadline-miss forensics exact, which is how
//     misses, losses and the worst deliveries stay fully traced while bulk
//     spans are sampled.
type samplerState struct {
	on   bool
	hi   uint64 // admit iff splitmix64(seed^id) < hi
	seed uint64
	rate float64 // as configured, for export/meta
}

// SetSampling configures deterministic per-packet span sampling. rate is the
// admitted fraction in [0,1]: 1 (or anything ≥1) disables sampling and
// retains everything; 0 retains no packet-scoped spans. seed makes
// the admitted subset reproducible — sweeps pass their shard seed so replicas
// of one scenario admit the same packets on any worker layout. Outcomes
// and the tap stream are unaffected at any rate.
func (r *Recorder) SetSampling(rate float64, seed uint64) {
	if r == nil {
		return
	}
	if rate >= 1 || rate != rate { // NaN guards as "keep everything"
		r.sampler = samplerState{}
		return
	}
	if rate < 0 {
		rate = 0
	}
	// ⌊rate·2⁶⁴⌋: rate < 1 keeps the product below 2⁶⁴, so the conversion
	// is exact to the float's precision.
	r.sampler = samplerState{on: true, hi: uint64(rate * (1 << 63) * 2), seed: seed, rate: rate}
}

// SampleRate returns the configured span sample rate, 1 when sampling is off
// (or the recorder disabled) — the value exporters stamp into trace metadata
// so audited counts are never silently misread as raw counts.
func (r *Recorder) SampleRate() float64 {
	if r == nil || !r.sampler.on {
		return 1
	}
	return r.sampler.rate
}

// keepPacket is the admission verdict for one packet id. Non-packet records
// (id < 0) are always kept.
func (r *Recorder) keepPacket(id int) bool {
	if !r.sampler.on || id < 0 {
		return true
	}
	return splitmix64(r.sampler.seed^uint64(int64(id))) < r.sampler.hi
}

// splitmix64 is the finalizer of the splitmix64 PRNG — the same mixer
// internal/sweep uses for shard seeds — applied here as a hash: uniform
// output over uint64 for sequential packet ids.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

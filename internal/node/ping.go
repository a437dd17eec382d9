package node

import "urllcsim/internal/sim"

// PingResult is the outcome of one full echo round trip (§3's "journey of a
// ping request"): UE → gNB → UPF → server, reply back down to the UE.
type PingResult struct {
	ID        int
	Delivered bool
	RTT       sim.Duration
	ULLatency sim.Duration
	DLLatency sim.Duration
}

// pingCtx tracks one ping. Its result is filled in as the request and the
// reply resolve, so PingResults never reads the per-packet results, which
// callers of Results may hold.
type pingCtx struct {
	sentAt  sim.Time
	turning sim.Duration
	res     PingResult
}

// echoBytes is the smallest echo message: a reply flag, ID, sequence
// number and the sender's timestamp. A request is at least this size, and
// a reply is exactly this size.
const echoBytes = 13

// OfferPing injects an echo request of size bytes at the UE at time at.
// The echo server behind the UPF replies after turnaround. Results are
// retrievable via PingResults after the run.
func (s *System) OfferPing(at sim.Time, size int, turnaround sim.Duration) int {
	id := len(s.pings)
	ctx := &pingCtx{sentAt: at, turning: turnaround, res: PingResult{ID: id}}
	s.pings = append(s.pings, ctx)
	if s.pingByUL == nil {
		s.pingByUL = map[int]*pingCtx{}
	}
	s.pingByUL[s.OfferUL(at, max(size, echoBytes))] = ctx
	return id
}

// PingResults returns the round-trip outcomes resolved so far, one per
// OfferPing in offer order, in a new slice.
func (s *System) PingResults() []PingResult {
	out := make([]PingResult, len(s.pings))
	for i, ctx := range s.pings {
		out[i] = ctx.res
	}
	return out
}

// onULDelivered hooks ping continuation: when a UL packet that belongs to a
// ping reaches the UPF, the echo server turns it around as a DL packet.
func (s *System) onULDelivered(ulID int, at sim.Time, ok bool) {
	ctx, isPing := s.pingByUL[ulID]
	if !isPing || !ok {
		return
	}
	ctx.res.ULLatency = at.Sub(ctx.sentAt)
	if s.pingByDL == nil {
		s.pingByDL = map[int]*pingCtx{}
	}
	s.pingByDL[s.OfferDL(at.Add(ctx.turning), echoBytes)] = ctx
}

// onDLDelivered completes a ping when its reply, DL packet dlID, reaches
// the UE after latency lat.
func (s *System) onDLDelivered(dlID int, lat sim.Duration, ok bool) {
	ctx, isPing := s.pingByDL[dlID]
	if !isPing || !ok {
		return
	}
	r := &ctx.res
	r.DLLatency = lat
	r.Delivered = true
	r.RTT = r.ULLatency + ctx.turning + r.DLLatency
}

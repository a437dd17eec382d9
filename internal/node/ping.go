package node

import (
	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

// PingResult is the outcome of one full echo round trip (§3's "journey of a
// ping request"): UE → gNB → UPF → server, reply back down to the UE.
type PingResult struct {
	ID        int
	Delivered bool
	RTT       sim.Duration
	ULLatency sim.Duration
	DLLatency sim.Duration
}

// pingCtx tracks one in-flight ping.
type pingCtx struct {
	id      int
	sentAt  sim.Time
	ulID    int
	ulDone  sim.Time
	turning sim.Duration
}

// OfferPing injects an echo request at the UE at time at. The echo server
// behind the UPF replies after turnaround. Results are retrievable via
// PingResults after the run.
func (s *System) OfferPing(at sim.Time, size int, turnaround sim.Duration) int {
	if size < 13 {
		size = 13
	}
	id := len(s.pings)
	ctx := &pingCtx{id: id, sentAt: at, turning: turnaround}
	s.pings = append(s.pings, ctx)

	req := pdu.Echo{ID: uint16(id), Seq: 1, SentNs: int64(at), Size: size}
	payload, err := req.Append(nil)
	if err != nil {
		return -1
	}
	ctx.ulID = s.OfferUL(at, payload)
	s.pingByUL[ctx.ulID] = ctx
	return id
}

// PingResults assembles the round-trip outcomes from the per-direction
// results recorded during the run.
func (s *System) PingResults() []PingResult {
	byID := map[int]Result{}
	for _, r := range s.results {
		byID[r.ID] = r
	}
	out := make([]PingResult, 0, len(s.pings))
	for _, ctx := range s.pings {
		pr := PingResult{ID: ctx.id}
		ul, okUL := byID[ctx.ulID]
		if !okUL || !ul.Delivered {
			out = append(out, pr)
			continue
		}
		pr.ULLatency = ul.Latency
		dlID, started := s.pingDLID[ctx.id]
		if !started {
			out = append(out, pr)
			continue
		}
		dl, okDL := byID[dlID]
		if !okDL || !dl.Delivered {
			out = append(out, pr)
			continue
		}
		pr.DLLatency = dl.Latency
		pr.Delivered = true
		pr.RTT = pr.ULLatency + ctx.turning + pr.DLLatency
		out = append(out, pr)
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
	ctx.ulDone = at
	reply := pdu.Echo{ID: uint16(ctx.id), Seq: 1, SentNs: int64(ctx.sentAt), Reply: true, Size: 13}
	payload, err := reply.Append(nil)
	if err != nil {
		return
	}
	replyAt := at.Add(ctx.turning)
	if s.pingDLID == nil {
		s.pingDLID = map[int]int{}
	}
	s.pingDLID[ctx.id] = s.OfferDL(replyAt, payload)
}

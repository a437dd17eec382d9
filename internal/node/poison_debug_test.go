//go:build obsdebug

package node

import (
	"strings"
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/sim"
)

// mustPanic runs f and fails unless it panics naming a released context.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "released") {
			t.Errorf("%s: panic %q, want one naming a released context", what, msg)
		}
	}()
	f()
}

// Under -tags obsdebug a released packet context is poisoned: a second
// finish on it, or an event fired for it, panics instead of resolving or
// advancing whichever packet the pool hands the context to next.
func TestReleasedContextPanics(t *testing.T) {
	if !obs.PoisonEnabled {
		t.Fatal("obsdebug build reports obs.PoisonEnabled = false")
	}
	cfg := testbedConfig(t, false, 7)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three packets offered and one resolved: the System is not drained, so
	// the released contexts stay in the free lists.
	s.nextID = 3
	ul := s.ulPool.get()
	*ul = ulPacket{s: s, id: 0, cgUnit: -1}
	s.finishUL(ul, 0, false)
	dl := s.dlPool.get()
	*dl = dlPacket{s: s, id: 1}
	s.finishDL(dl, 0, false)
	if len(s.ulPool.free) != 1 || len(s.dlPool.free) != 1 {
		t.Fatalf("free lists hold %d UL and %d DL contexts, want 1 each", len(s.ulPool.free), len(s.dlPool.free))
	}
	if ul.id != obs.PoisonPacket || dl.id != obs.PoisonPacket {
		t.Fatalf("released contexts not poisoned: UL id %d, DL id %d", ul.id, dl.id)
	}
	mustPanic(t, "a second finishUL", func() { s.finishUL(ul, 0, true) })
	mustPanic(t, "a second finishDL", func() { s.finishDL(dl, 0, true) })
	for _, h := range []sim.Handler{ul, dl} {
		e := sim.NewEngine()
		e.Schedule(sim.Time(sim.Millisecond), "stale", h)
		mustPanic(t, "an event fired for a released context", func() { e.RunAll() })
	}
	if got := len(s.Results()); got != 2 {
		t.Fatalf("%d results after the misuse, want 2", got)
	}
}

package core

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/traffic"
)

// rateAllocator is the minimal surface the reset-equivalence tests need:
// every session policy in this package implements it.
type rateAllocator interface {
	Rate(t bw.Tick, arrived, queued bw.Bits) bw.Rate
}

// driveRates feeds the trace through the allocator with a crude
// fluid-queue follow-along (a self-contained stand-in for sim.Run, so
// these tests don't depend on the simulator) and returns every rate.
func driveRates(a rateAllocator, arrivals []bw.Bits) []bw.Rate {
	rates := make([]bw.Rate, 0, len(arrivals)+64)
	var queued bw.Bits
	feed := func(t bw.Tick, arrived bw.Bits) {
		queued += arrived
		r := a.Rate(t, arrived, queued)
		served := bw.Volume(r, 1)
		if served > queued {
			served = queued
		}
		queued -= served
		rates = append(rates, r)
	}
	t := bw.Tick(0)
	for _, arrived := range arrivals {
		feed(t, arrived)
		t++
	}
	for i := 0; i < 64; i++ { // drain tail
		feed(t, 0)
		t++
	}
	return rates
}

func resetWorkload(p SingleParams) []bw.Bits {
	tr := traffic.ClampTrace(
		traffic.ParetoBurst{Seed: 7, Alpha: 1.5, MinBurst: 48, MeanGap: 10,
			SpreadTicks: 2}.Generate(512), p.BA, p.DO)
	arrivals := make([]bw.Bits, tr.Len())
	for t := bw.Tick(0); t < tr.Len(); t++ {
		arrivals[t] = tr.At(t)
	}
	return arrivals
}

// TestSessionResetMatchesFresh checks the Runner reuse contract for every
// session variant: run, Reset, run again — the second run's rates and
// stats must be identical to a fresh session's.
func TestSessionResetMatchesFresh(t *testing.T) {
	p := singleParams()
	arrivals := resetWorkload(p)

	type resettable interface {
		rateAllocator
		Reset()
		Stats() SingleStats
	}
	variants := map[string]func() resettable{
		"single":      func() resettable { return MustNewSingleSession(p) },
		"unquantized": func() resettable { return MustNewUnquantizedSingle(p) },
		"globalutil":  func() resettable { return MustNewGlobalUtilSingle(p) },
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			reused := mk()
			driveRates(reused, arrivals)
			reused.Reset()
			got := driveRates(reused, arrivals)

			fresh := mk()
			want := driveRates(fresh, arrivals)

			if len(got) != len(want) {
				t.Fatalf("rate count %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tick %d: reused rate %d, fresh rate %d", i, got[i], want[i])
				}
			}
			if reused.Stats() != fresh.Stats() {
				t.Errorf("stats diverged: reused %+v, fresh %+v", reused.Stats(), fresh.Stats())
			}
		})
	}
}

// TestSessionResetEmitsTeardown: with an observer attached and a nonzero
// last rate, Reset must report the renegotiation down to zero — releasing
// the allocation is a change under the paper's cost measure.
func TestSessionResetEmitsTeardown(t *testing.T) {
	s := MustNewSingleSession(singleParams())
	c := &collect{}
	s.SetObserver(c)
	s.Rate(0, 32, 32) // forces a nonzero allocation
	n := len(c.events)
	s.Reset()
	if len(c.events) != n+1 {
		t.Fatalf("Reset emitted %d events, want 1", len(c.events)-n)
	}
	last := c.events[len(c.events)-1]
	if last.Type != obs.EventRenegotiateDown || last.NewRate != 0 {
		t.Errorf("Reset event = %+v, want renegotiate-down to 0", last)
	}
	// A second Reset from rate 0 is silent.
	n = len(c.events)
	s.Reset()
	if len(c.events) != n {
		t.Errorf("idle Reset emitted %d events, want 0", len(c.events)-n)
	}
}

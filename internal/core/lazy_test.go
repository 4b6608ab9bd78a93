package core

import (
	"slices"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// TestQuietTickWritesNothing pins the drain lines' point: between its
// events a policy does no work for a session that only drains. After a
// burst into most sessions — raising, spilling and rating them — a tick
// with no arrivals, no phase boundary, no REDUCE due and no stage event
// must leave every session record and the live set exactly as they
// were, and move no rate. Per-tick queue accounting over the live
// sessions, had it come back, would rewrite the records of every
// session with bits queued.
func TestQuietTickWritesNothing(t *testing.T) {
	const (
		k  = 64
		do = bw.Tick(8)
	)
	multi := MultiParams{K: k, BO: 16 * k, DO: do}
	for _, tc := range []struct {
		name  string
		alloc sim.SparseAllocator
	}{
		{"phased", MustNewPhased(multi)},
		{"continuous", MustNewContinuous(multi)},
		{"combined", MustNewCombined(CombinedParams{K: k, BA: bw.NextPow2(8 * 16 * k), DO: do, UO: 0.5, W: 2 * do})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ch *channels
			switch a := tc.alloc.(type) {
			case *Phased:
				ch = &a.ch
			case *Continuous:
				ch = &a.ch
			case *Combined:
				ch = &a.ch
			}
			applied := make([]bw.Rate, k)
			step := func(tick bw.Tick, arrived []int32, bits []bw.Bits) int {
				changed, rates := tc.alloc.RatesActive(tick, arrived, bits, applied)
				for j, i := range changed {
					applied[i] = rates[j]
				}
				return len(changed)
			}
			// A steady trickle first, so Combined's estimate is above zero
			// and a quiet tick is not the end of its global stage; then
			// the burst, large enough for TEST to spill.
			var arrived []int32
			var bits []bw.Bits
			for i := int32(0); i < k; i++ {
				arrived = append(arrived, i)
				bits = append(bits, 4)
			}
			tick := bw.Tick(1)
			for ; tick < do/2; tick++ {
				step(tick, arrived, bits)
			}
			for j := range bits {
				bits[j] = bw.Volume(2*16, do) + bw.Bits(j)
			}
			step(tick, arrived[:k-8], bits[:k-8])
			tick++

			before := slices.Clone(ch.sess)
			live := ch.live.AppendTo(nil, 0, k)
			queued := 0
			for i := range ch.sess {
				if qr, qo := ch.at(&ch.sess[i]); qr+qo > 0 && ch.sess[i].bir+ch.sess[i].bio > 0 {
					queued++
				}
			}
			if queued < k/2 {
				t.Fatalf("only %d sessions hold bits at a positive rate before the quiet tick; the test checks too little", queued)
			}
			if moved := step(tick, nil, nil); moved != 0 {
				t.Errorf("tick %d: %d rates moved on a quiet tick", tick, moved)
			}
			if !slices.Equal(ch.sess, before) {
				for i := range before {
					if ch.sess[i] != before[i] {
						t.Fatalf("tick %d: session %d's record went from %+v to %+v", tick, i, before[i], ch.sess[i])
					}
				}
			}
			if got := ch.live.AppendTo(nil, 0, k); !slices.Equal(got, live) {
				t.Errorf("tick %d: the live set went from %v to %v", tick, live, got)
			}
		})
	}
}

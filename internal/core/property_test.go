package core

import (
	"testing"
	"testing/quick"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// promiser is a multi-session policy that states its promise.
type promiser interface {
	sim.MultiAllocator
	sim.Promiser
}

// randomFeasibleTrace builds an arbitrary-but-feasible trace from raw
// fuzz bytes: arbitrary burst amounts pushed through the feasibility
// clamp for (BA, DO).
func randomFeasibleTrace(raw []uint8, p SingleParams) *trace.Trace {
	arrivals := make([]bw.Bits, len(raw)+1)
	for i, v := range raw {
		// Mix of silence, small and large bursts.
		switch {
		case v < 100:
			arrivals[i] = 0
		case v < 200:
			arrivals[i] = bw.Bits(v % 16)
		default:
			arrivals[i] = bw.Bits(v) * 3
		}
	}
	return traffic.ClampTrace(trace.MustNew(arrivals), p.BA, p.DO)
}

// TestDelayGuaranteeProperty fuzzes arrival patterns and asserts the
// paper's delay bound for every variant that promises it.
func TestDelayGuaranteeProperty(t *testing.T) {
	p := SingleParams{BA: 128, DO: 4, UO: 0.5, W: 8}
	mk := map[string]func(SingleParams) *SingleSession{
		"single":     MustNewSingleSession,
		"globalutil": MustNewGlobalUtilSingle,
	}
	for name, newAlloc := range mk {
		t.Run(name, func(t *testing.T) {
			f := func(raw []uint8) bool {
				if len(raw) > 300 {
					raw = raw[:300]
				}
				tr := randomFeasibleTrace(raw, p)
				alg := newAlloc(p)
				res, err := sim.Run(tr, alg, sim.Options{})
				if err != nil {
					return false
				}
				if res.Delay.Served != tr.Total() {
					return false
				}
				pr := alg.Promise()
				return res.Delay.Max <= pr.DA && res.Schedule.MaxRate() <= pr.BA
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUtilizationGuaranteeProperty fuzzes arrival patterns and asserts
// Lemma 5's flexible-window utilization bound for the standard algorithm.
func TestUtilizationGuaranteeProperty(t *testing.T) {
	p := SingleParams{BA: 128, DO: 4, UO: 0.5, W: 8}
	f := func(raw []uint8) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		tr := randomFeasibleTrace(raw, p)
		alg := MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return false
		}
		pr := alg.Promise()
		return metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, pr.UW) >= pr.UA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStageAccountingProperty asserts the Theorem 6 bookkeeping on fuzzed
// input: changes per stage bounded by log2(BA) + small constant, and
// Stages = Resets + 1.
func TestStageAccountingProperty(t *testing.T) {
	p := SingleParams{BA: 128, DO: 4, UO: 0.5, W: 8}
	f := func(raw []uint8) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		tr := randomFeasibleTrace(raw, p)
		alg := MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return false
		}
		st := alg.Stats()
		if st.Stages != st.Resets+1 {
			return false
		}
		if st.InfeasibleTicks != 0 {
			return false
		}
		maxPerStage := p.LogBA() + 3
		return res.Report.Changes <= st.Stages*maxPerStage
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMultiDelayProperty fuzzes per-session arrival patterns through the
// multi-session algorithms and asserts their promised delay and bandwidth
// bounds. Feasibility comes from clamping each session to its equal share
// of B_O, which a (B_O, D_O)-offline serves trivially.
func TestMultiDelayProperty(t *testing.T) {
	const (
		k  = 3
		do = bw.Tick(4)
	)
	p := MultiParams{K: k, BO: 48, DO: do}
	share := p.BO / k
	for _, tc := range []struct {
		name string
		mk   func() promiser
	}{
		{"phased", func() promiser { return MustNewPhased(p) }},
		{"continuous", func() promiser { return MustNewContinuous(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(raw []uint8) bool {
				if len(raw) < k {
					return true
				}
				if len(raw) > 240 {
					raw = raw[:240]
				}
				n := len(raw) / k
				traces := make([]*trace.Trace, k)
				for i := 0; i < k; i++ {
					arr := make([]bw.Bits, n)
					for j := 0; j < n; j++ {
						arr[j] = bw.Bits(raw[i*n+j]) % 64
					}
					traces[i] = traffic.ClampTrace(trace.MustNew(arr), share, do)
				}
				m := trace.MustNewMulti(traces)
				alg := tc.mk()
				res, err := sim.RunMulti(m, alg, sim.Options{})
				if err != nil {
					return false
				}
				pr := alg.Promise()
				return res.Delay.Max <= pr.DA && res.MaxTotalRate() <= pr.BA
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCombinedDelayProperty fuzzes the Section 4 algorithm (both inner
// variants) on planted-like feasible traffic and asserts the promised
// delay and bandwidth bounds.
func TestCombinedDelayProperty(t *testing.T) {
	p := CombinedParams{K: 3, BA: 128, DO: 4, UO: 0.5, W: 8}
	share := bw.Rate(8)
	for _, tc := range []struct {
		name string
		mk   func(CombinedParams) *Combined
	}{
		{"phased-inner", MustNewCombined},
		{"continuous-inner", MustNewCombinedContinuous},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(raw []uint8) bool {
				if len(raw) < p.K {
					return true
				}
				if len(raw) > 240 {
					raw = raw[:240]
				}
				n := len(raw) / p.K
				traces := make([]*trace.Trace, p.K)
				for i := 0; i < p.K; i++ {
					arr := make([]bw.Bits, n)
					for j := 0; j < n; j++ {
						arr[j] = bw.Bits(raw[i*n+j]) % 24
					}
					traces[i] = traffic.ClampTrace(trace.MustNew(arr), share, p.DO)
				}
				m := trace.MustNewMulti(traces)
				alg := tc.mk(p)
				res, err := sim.RunMulti(m, alg, sim.Options{})
				if err != nil {
					return false
				}
				pr := alg.Promise()
				return res.Delay.Max <= pr.DA && res.MaxTotalRate() <= pr.BA
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

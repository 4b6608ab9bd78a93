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
	mk := map[string]func() sim.Allocator{
		"single":     func() sim.Allocator { return MustNewSingleSession(p) },
		"globalutil": func() sim.Allocator { return MustNewGlobalUtilSingle(p) },
	}
	for name, newAlloc := range mk {
		t.Run(name, func(t *testing.T) {
			f := func(raw []uint8) bool {
				if len(raw) > 300 {
					raw = raw[:300]
				}
				tr := randomFeasibleTrace(raw, p)
				res, err := sim.Run(tr, newAlloc(), sim.Options{})
				if err != nil {
					return false
				}
				if res.Delay.Served != tr.Total() {
					return false
				}
				return res.Delay.Max <= p.DA() && res.Schedule.MaxRate() <= p.BA
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
		res, err := sim.Run(tr, MustNewSingleSession(p), sim.Options{})
		if err != nil {
			return false
		}
		return metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, p.W+5*p.DO) >= p.UA()
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
// multi-session algorithms and asserts the 2*D_O delay and bandwidth
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
		name    string
		mk      func() sim.MultiAllocator
		bwBound bw.Rate
	}{
		{"phased", func() sim.MultiAllocator { return MustNewPhased(p) }, 4*p.BO + k},
		{"continuous", func() sim.MultiAllocator { return MustNewContinuous(p) }, 5*p.BO + k},
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
				res, err := sim.RunMulti(m, tc.mk(), sim.Options{})
				if err != nil {
					return false
				}
				return res.Delay.Max <= p.DA() && res.MaxTotalRate() <= tc.bwBound
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCombinedDelayProperty fuzzes the Section 4 algorithm (both inner
// variants) on planted-like feasible traffic and asserts the delay bound
// with the documented 2-tick discrete handoff slack.
func TestCombinedDelayProperty(t *testing.T) {
	p := CombinedParams{K: 3, BA: 128, DO: 4, UO: 0.5, W: 8}
	share := bw.Rate(8)
	for _, tc := range []struct {
		name string
		mk   func() sim.MultiAllocator
	}{
		{"phased-inner", func() sim.MultiAllocator { return MustNewCombined(p) }},
		{"continuous-inner", func() sim.MultiAllocator { return MustNewCombinedContinuous(p) }},
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
				res, err := sim.RunMulti(m, tc.mk(), sim.Options{})
				if err != nil {
					return false
				}
				return res.Delay.Max <= p.DA()+2
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

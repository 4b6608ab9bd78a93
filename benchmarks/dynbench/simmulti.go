package main

import (
	"fmt"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/load"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// The sim-multi workload drives sim.MultiRunner with no gateway in
// sight. Its timed operation is one sweep: every policy over every
// session count, on one seeded trace per session count.
var (
	simPolicies = []string{"phased", "continuous", "combined"}
	simKs       = []int{64, 4096}
)

// simTicks is the trace length. A sweep steps some 3·(64+4096)·simTicks
// session-ticks, which keeps it under a fifth of a second, so that a
// phase of a few seconds times dozens of sweeps.
const simTicks = bw.Tick(128)

// multiTrace generates k on/off sessions, each clamped so the session's
// share serves it within D_O: the static partition is then a feasible
// offline allocation of B_O = share·k, which is what the paper's
// guarantees assume of their input.
func multiTrace(seed uint64, k int, ticks, do bw.Tick) *trace.Multi {
	sessions := make([]*trace.Trace, k)
	for i := range sessions {
		src := traffic.OnOff{Seed: seed + uint64(i)<<20, PeakRate: 2 * share, MeanOn: 6, MeanOff: 18}
		sessions[i] = traffic.ClampTrace(src.Generate(ticks), share, do)
	}
	return trace.MustNewMulti(sessions)
}

// simInput is one session count's trace with its total precomputed.
type simInput struct {
	k     int
	multi *trace.Multi
	total bw.Bits
}

func simInputs(seed uint64, ks []int, ticks, do bw.Tick) []simInput {
	in := make([]simInput, len(ks))
	for i, k := range ks {
		m := multiTrace(seed, k, ticks, do)
		in[i] = simInput{k: k, multi: m, total: m.Aggregate().Total()}
	}
	return in
}

// sweeper runs sweeps and checks every run's outcome: all arrivals
// served, and the same number of allocation changes every time a
// configuration runs on the same trace. Phased and continuous
// must also keep every delay within D_A = 2·D_O, which Theorems 14 and
// 17 promise for any input a (B_O, D_O) offline can serve. The combined
// algorithm's bound further assumes an offline that keeps its
// utilization, which an on/off source gives no reason to expect, so its
// delay is not checked.
type sweeper struct {
	in      []simInput
	do      bw.Tick
	runner  *sim.MultiRunner
	changes map[string]int
	tr      *tracer
	tally   tally
	seq     uint64
	sweeps  []sweepSample
}

// sweepSample is one timed sweep: when it ended, counted from the start
// of the phase, how long it took, the session·ticks it stepped and the
// clock ticks the hypervisor withheld meanwhile.
type sweepSample struct {
	end, dur time.Duration
	work     int64
	stolen   int64
}

// sweep returns the session·ticks the sweep stepped.
func (s *sweeper) sweep() (int64, error) {
	s.seq++
	x := s.tr.start("sweep", s.seq, -1)
	defer s.tr.end(x)
	var work int64
	for _, in := range s.in {
		for _, policy := range simPolicies {
			alloc, err := load.NewPolicy(policy, in.k, bw.Rate(in.k)*share, s.do)
			if err != nil {
				return 0, err
			}
			name := fmt.Sprintf("%s/k=%d", policy, in.k)
			h := s.tr.start("MultiRunner.Run "+name, s.seq, x)
			res, err := s.runner.Run(in.multi, alloc, sim.Options{})
			s.tr.end(h)
			if err != nil {
				s.tally.fail("sim %s: %v", name, err)
				continue
			}
			work += int64(in.k) * res.Total.Len()
			changes := res.SessionChanges()
			if was, seen := s.changes[name]; seen {
				s.tally.check(was == changes, "sim %s: %d changes, %d on the first run of the same trace", name, changes, was)
			} else {
				s.changes[name] = changes
			}
			s.tally.check(res.Delay.Served == in.total, "sim %s: served %d of %d bits", name, res.Delay.Served, in.total)
			if policy != "combined" {
				s.tally.check(res.Delay.Max <= 2*s.do, "sim %s: max delay %d ticks exceeds D_A = %d", name, res.Delay.Max, 2*s.do)
			}
		}
	}
	return work, nil
}

// run sweeps until length has passed since start.
func (s *sweeper) run(start time.Time, length time.Duration) error {
	s.sweeps = s.sweeps[:0]
	for time.Since(start) < length {
		before, t0 := stolen(), time.Now()
		work, err := s.sweep()
		if err != nil {
			return err
		}
		end := time.Since(start)
		s.sweeps = append(s.sweeps, sweepSample{end, end - t0.Sub(start), work, stolen() - before})
	}
	return nil
}

// simPhase sweeps for length after one warm-up sweep, on the one
// goroutine the simulator's callers give it: the collector has the other
// core, and a second runner would only compete with the first for the
// memory both stream through. The phase is cut into slices like any
// other; a sweep counts in the slice it ends in, and at a tenth to a
// fifth of a second a sweep a slice holds one or two.
func simPhase(s *sweeper, length time.Duration) (phaseStats, error) {
	if _, err := s.sweep(); err != nil {
		return phaseStats{}, err
	}
	if err := s.run(time.Now(), length); err != nil {
		return phaseStats{}, err
	}
	ps := phaseStats{seconds: length.Seconds(), ops: len(s.sweeps)}
	durs := make([][]int64, nSlices)
	work := make([]float64, nSlices)
	withheld := make([]int64, nSlices)
	for _, sw := range s.sweeps {
		i := sliceOf(sw.end, length, nSlices)
		durs[i] = append(durs[i], int64(sw.dur))
		work[i] += float64(sw.work)
		withheld[i] += sw.stolen
		ps.units += float64(sw.work)
	}
	for i := range durs {
		if len(durs[i]) == 0 {
			continue // no sweep ended in the slice
		}
		var busy float64
		for _, d := range durs[i] {
			busy += float64(d)
		}
		ps.slices = append(ps.slices, sliceStats{
			work:   work[i] / (busy / 1e9),
			p50:    percentile(durs[i], 0.50) / 1e3,
			p90:    percentile(durs[i], 0.90) / 1e3,
			stolen: withheld[i],
		})
	}
	return ps, nil
}

func newSweeper(in []simInput, do bw.Tick) *sweeper {
	return &sweeper{in: in, do: do, runner: sim.NewMultiRunner(), changes: make(map[string]int)}
}

// simKsFor shrinks the session counts for the smoke test.
func simKsFor(o runOpts) []int {
	if o.slots == 0 {
		return simKs
	}
	ks := make([]int, len(simKs))
	for i, k := range simKs {
		if ks[i] = k; k > o.slots {
			ks[i] = o.slots
		}
	}
	return ks
}

// runSim is the untraced pass of sim-multi. Set-up is trace generation.
func runSim(w workload, o runOpts) (Result, error) {
	res := newResult(w.name, false)
	var setups []float64
	var in []simInput
	for i := 0; i < w.setups; i++ {
		start := time.Now()
		in = simInputs(o.seed, simKsFor(o), simTicks, w.do)
		setups = append(setups, time.Since(start).Seconds())
	}
	s := newSweeper(in, w.do)
	ps, err := simPhase(s, o.phase())
	if err != nil {
		return res, err
	}
	res.Metrics["setup_s"] = sliced("s", setups, len(setups))
	ps.report(res.Metrics)
	res.setTally(&s.tally)
	return res, nil
}

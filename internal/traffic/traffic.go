// Package traffic generates synthetic arrival streams. The cited
// experimental works ([GKT95], [ACHM96]) drove their heuristics with real
// network traces; those traces are not available, so this package provides
// deterministic synthetic equivalents spanning the same qualitative
// regimes — smooth constant-bit-rate traffic, on/off bursts, heavy-tailed
// (Pareto) bursts, MPEG-like variable-bit-rate video, and adversarial
// streams for the lower-bound experiments. All generators are seeded and
// reproducible (see internal/rng).
package traffic

import (
	"dynbw/internal/bw"
	"dynbw/internal/rng"
	"dynbw/internal/trace"
)

// Generator produces an arrival stream of a given length.
type Generator interface {
	// Generate returns a trace with n ticks.
	Generate(n bw.Tick) *trace.Trace
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(n bw.Tick) *trace.Trace

// Generate implements Generator.
func (f GeneratorFunc) Generate(n bw.Tick) *trace.Trace { return f(n) }

var _ Generator = GeneratorFunc(nil)

// CBR is constant-bit-rate traffic: exactly Rate bits arrive every tick.
type CBR struct {
	Rate bw.Rate
}

var _ Generator = CBR{}

// Generate implements Generator.
func (g CBR) Generate(n bw.Tick) *trace.Trace {
	arrivals := make([]bw.Bits, n)
	for i := range arrivals {
		arrivals[i] = bw.Volume(g.Rate, 1)
	}
	return trace.MustNew(arrivals)
}

// OnOff is a two-state Markov-modulated source: during ON periods it emits
// PeakRate bits per tick, during OFF periods nothing. Period lengths are
// geometric with the given means — the classic bursty-traffic model.
type OnOff struct {
	Seed     uint64
	PeakRate bw.Rate
	// MeanOn and MeanOff are the mean period lengths in ticks (>= 1).
	MeanOn, MeanOff float64
}

var _ Generator = OnOff{}

// Generate implements Generator.
func (g OnOff) Generate(n bw.Tick) *trace.Trace {
	src := rng.New(g.Seed)
	arrivals := make([]bw.Bits, n)
	on := src.Bool(g.MeanOn / (g.MeanOn + g.MeanOff))
	for i := bw.Tick(0); i < n; {
		var period bw.Tick
		if on {
			period = bw.Tick(src.Exp(g.MeanOn)) + 1
		} else {
			period = bw.Tick(src.Exp(g.MeanOff)) + 1
		}
		for j := bw.Tick(0); j < period && i < n; j++ {
			if on {
				arrivals[i] = bw.Volume(g.PeakRate, 1)
			}
			i++
		}
		on = !on
	}
	return trace.MustNew(arrivals)
}

// Spike is low-rate background traffic with occasional large spikes —
// the "bursty nature of traffic" regime where the required bandwidth
// changes dramatically and unpredictably.
type Spike struct {
	Seed      uint64
	Base      bw.Rate
	SpikeBits bw.Bits
	// SpikeProb is the per-tick probability of a spike.
	SpikeProb float64
}

var _ Generator = Spike{}

// Generate implements Generator.
func (g Spike) Generate(n bw.Tick) *trace.Trace {
	src := rng.New(g.Seed)
	arrivals := make([]bw.Bits, n)
	for i := range arrivals {
		arrivals[i] = bw.Volume(g.Base, 1)
		if src.Bool(g.SpikeProb) {
			arrivals[i] += g.SpikeBits
		}
	}
	return trace.MustNew(arrivals)
}

// ParetoBurst emits bursts whose sizes are Pareto distributed (heavy
// tailed) with exponential gaps — a standard model for self-similar
// traffic aggregates.
type ParetoBurst struct {
	Seed uint64
	// Alpha is the Pareto shape (use 1 < Alpha <= 2 for heavy tails with
	// finite mean).
	Alpha float64
	// MinBurst is the Pareto scale: the minimum burst size in bits.
	MinBurst bw.Bits
	// MeanGap is the mean number of ticks between burst starts.
	MeanGap float64
	// SpreadTicks spreads each burst uniformly over this many ticks
	// (1 = all bits in one tick).
	SpreadTicks bw.Tick
}

var _ Generator = ParetoBurst{}

// Generate implements Generator.
func (g ParetoBurst) Generate(n bw.Tick) *trace.Trace {
	src := rng.New(g.Seed)
	arrivals := make([]bw.Bits, n)
	spread := g.SpreadTicks
	if spread < 1 {
		spread = 1
	}
	for t := bw.Tick(0); t < n; {
		gap := bw.Tick(src.Exp(g.MeanGap)) + 1
		t += gap
		if t >= n {
			break
		}
		burst := bw.Bits(src.Pareto(g.Alpha, float64(g.MinBurst)))
		per := bw.RateOver(burst, spread)
		for j := bw.Tick(0); j < spread && t+j < n && burst > 0; j++ {
			amt := min(bw.Volume(per, 1), burst)
			arrivals[t+j] += amt
			burst -= amt
		}
	}
	return trace.MustNew(arrivals)
}

// Composite sums the streams of several generators.
type Composite struct {
	Parts []Generator
}

var _ Generator = Composite{}

// Generate implements Generator.
func (g Composite) Generate(n bw.Tick) *trace.Trace {
	traces := make([]*trace.Trace, len(g.Parts))
	for i, p := range g.Parts {
		traces[i] = p.Generate(n)
	}
	return trace.Sum(traces...)
}

// ClampTrace caps the arrivals of tr so the result is serveable with
// constant bandwidth b and delay d — the paper's standing feasibility
// assumption. It enforces the exact condition IN[a..t] <= b*(t-a+1+d)
// for every window by a token-bucket recursion (excess
// E(t) = max(E(t-1),0) + a(t) - b must stay <= b*d). Bits that do not
// fit are dropped (the paper ignores data loss; see Section 1).
func ClampTrace(tr *trace.Trace, b bw.Rate, d bw.Tick) *trace.Trace {
	n := tr.Len()
	arrivals := make([]bw.Bits, n)
	budget := bw.Volume(b, d) // E(t) <= b*d keeps every deadline satisfiable
	var excess bw.Bits
	for t := bw.Tick(0); t < n; t++ {
		if excess < 0 {
			excess = 0
		}
		allowed := budget + bw.Volume(b, 1) - excess
		a := tr.At(t)
		if a > allowed {
			a = allowed
		}
		arrivals[t] = a
		excess += a - bw.Volume(b, 1)
	}
	return trace.MustNew(arrivals)
}

package traffic

import (
	"errors"
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/rng"
	"dynbw/internal/trace"
)

// PlantedParams configures a planted multi-session workload: traffic
// generated *from* a known offline allocation schedule, so the offline
// change count — the denominator of the competitive ratio in Theorems 14,
// 17 and Section 4 — is known exactly by construction.
type PlantedParams struct {
	Seed uint64
	// K is the number of sessions.
	K int
	// BO is the offline total bandwidth.
	BO bw.Rate
	// DO is the offline delay bound (the planted schedule actually serves
	// with delay 0, which is trivially within any DO >= 0).
	DO bw.Tick
	// Phases is the number of offline phases; PhaseLen their length.
	Phases   int
	PhaseLen bw.Tick
	// ShufflesPerPhase is how many session pairs exchange bandwidth at
	// each phase boundary (each shuffle changes two sessions' rates).
	ShufflesPerPhase int
	// Fill is the fraction of each session's offline rate carried as
	// traffic, in (0, 1]. It lower-bounds the workload's utilization.
	Fill float64
	// GlobalLevels, when true, additionally halves/restores the total
	// offline bandwidth at random phase boundaries, creating known
	// *global* changes for the combined-algorithm experiment.
	GlobalLevels bool
}

// Validate checks the parameters.
func (p PlantedParams) Validate() error {
	switch {
	case p.K < 1:
		return fmt.Errorf("planted: K = %d", p.K)
	case p.BO < bw.Rate(2*p.K):
		return fmt.Errorf("planted: BO = %d too small for K = %d sessions", p.BO, p.K)
	case p.DO < 0:
		return fmt.Errorf("planted: DO = %d", p.DO)
	case p.Phases < 1 || p.PhaseLen < 1:
		return fmt.Errorf("planted: phases %d x %d", p.Phases, p.PhaseLen)
	case p.Fill <= 0 || p.Fill > 1:
		return fmt.Errorf("planted: Fill = %v", p.Fill)
	}
	return nil
}

// Planted is a multi-session workload with its generating offline
// schedule.
type Planted struct {
	// Multi holds the per-session arrival streams.
	Multi *trace.Multi
	// OfflineSessions is the per-session planted allocation; it serves
	// every bit with delay 0 and is therefore a feasible
	// (BO, DO)-algorithm for any DO >= 0.
	OfflineSessions []*bw.Schedule
	// OfflineTotal is the planted aggregate allocation.
	OfflineTotal *bw.Schedule
}

// LocalChanges returns the planted offline's per-session allocation
// changes, summed over sessions.
func (pl *Planted) LocalChanges() int {
	total := 0
	for _, s := range pl.OfflineSessions {
		total += s.Changes()
	}
	return total
}

// GlobalChanges returns the planted offline's total-bandwidth changes.
func (pl *Planted) GlobalChanges() int { return pl.OfflineTotal.Changes() }

var errPlantedInternal = errors.New("planted: internal invariant violated")

// NewPlanted builds a planted workload.
func NewPlanted(p PlantedParams) (*Planted, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(p.Seed)
	k := p.K

	// Draw the initial split of BO among sessions: positive weights,
	// rounded so they sum to exactly the phase's total.
	level := p.BO
	rates := splitRates(src, k, level)

	n := bw.Tick(p.Phases) * p.PhaseLen
	arrivals := make([][]bw.Bits, k)
	for i := range arrivals {
		arrivals[i] = make([]bw.Bits, n)
	}
	scheds := make([]*bw.Schedule, k)
	for i := range scheds {
		scheds[i] = &bw.Schedule{}
	}

	for phase := 0; phase < p.Phases; phase++ {
		if phase > 0 {
			if p.GlobalLevels && src.Bool(0.5) {
				if level == p.BO {
					level = max(p.BO/2, int64(2*k))
				} else {
					level = p.BO
				}
				rates = splitRates(src, k, level)
			} else {
				for s := 0; s < p.ShufflesPerPhase; s++ {
					shuffleRates(src, rates)
				}
			}
		}
		start := bw.Tick(phase) * p.PhaseLen
		for i := 0; i < k; i++ {
			base := bw.Bits(float64(rates[i]) * p.Fill)
			if base < 1 {
				base = 1
			}
			// Alternate base+d, base-d without ever exceeding rates[i],
			// so the planted schedule serves every tick's arrivals in the
			// same tick (delay 0).
			d := min(base, bw.Volume(rates[i], 1)-base)
			for t := start; t < start+p.PhaseLen; t++ {
				a := base
				if d > 0 {
					if t%2 == 0 {
						a += d
					} else {
						a -= d
					}
				}
				arrivals[i][t] = a
			}
			for t := start; t < start+p.PhaseLen; t++ {
				scheds[i].Set(t, rates[i])
			}
		}
	}

	traces := make([]*trace.Trace, k)
	for i := range traces {
		tr, err := trace.New(arrivals[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errPlantedInternal, err)
		}
		traces[i] = tr
	}
	m, err := trace.NewMulti(traces)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPlantedInternal, err)
	}
	return &Planted{
		Multi:           m,
		OfflineSessions: scheds,
		OfflineTotal:    bw.Sum(scheds...),
	}, nil
}

// splitRates draws k positive rates summing to exactly total.
func splitRates(src *rng.Source, k int, total bw.Rate) []bw.Rate {
	weights := make([]float64, k)
	var sum float64
	for i := range weights {
		weights[i] = 0.25 + src.Float64()
		sum += weights[i]
	}
	rates := make([]bw.Rate, k)
	var used bw.Rate
	budget := total - bw.Rate(k) // reserve 1 per session
	for i := range rates {
		r := bw.Rate(float64(budget) * weights[i] / sum)
		rates[i] = 1 + r
		used += rates[i]
	}
	// Distribute rounding leftovers.
	for i := 0; used < total; i = (i + 1) % k {
		rates[i]++
		used++
	}
	return rates
}

// shuffleRates moves a random share of one session's rate to another,
// keeping every rate >= 2 so Fill*rate stays positive.
func shuffleRates(src *rng.Source, rates []bw.Rate) {
	k := len(rates)
	if k < 2 {
		return
	}
	from := src.Intn(k)
	to := src.Intn(k - 1)
	if to >= from {
		to++
	}
	if rates[from] <= 2 {
		return
	}
	amt := 1 + src.Int64n(rates[from]-2)
	rates[from] -= amt
	rates[to] += amt
}

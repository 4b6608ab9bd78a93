package traffic

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/rng"
)

// Churn is a loss-network-style session process: sessions arrive with
// exponential gaps, declare a nominal Rate, hold for an exponential time
// and emit bits drawn from one of the session traffic models. Everything
// is derived from Seed, so a Churn is a pure value: every realisation of
// it is the same list of sessions, which is what lets two simulators be
// fed one workload.
type Churn struct {
	Seed uint64
	// Horizon is the tick from which no new sessions arrive (departures
	// still play out past it).
	Horizon bw.Tick
	// MeanGap is the mean number of ticks between session arrivals.
	MeanGap float64
	// MeanHold is the mean session holding time in ticks.
	MeanHold float64
	// Rate is each session's nominal rate.
	Rate bw.Rate
	// Traffic selects the within-session bit process: "cbr" (exactly the
	// nominal rate), "mmpp" (3-state chain around the nominal rate), or
	// "heavytail" (Pareto bursts with nominal mean).
	Traffic string
}

// Session is one realised session of a Churn: it is open for the ticks
// [Arr, End) and emits Bits[t-Arr] at tick t.
type Session struct {
	Arr, End bw.Tick
	Bits     []bw.Bits
}

// Sessions realises the process: every session that arrives before the
// horizon, in arrival order, each arriving at a later tick than the one
// before it.
func (c Churn) Sessions() ([]Session, error) {
	if c.Horizon <= 0 || c.MeanGap <= 0 || c.MeanHold <= 0 || c.Rate <= 0 {
		return nil, fmt.Errorf("traffic: bad churn %+v", c)
	}
	src := rng.New(c.Seed)
	var sessions []Session
	for t := bw.Tick(src.Exp(c.MeanGap)) + 1; t < c.Horizon; t += bw.Tick(src.Exp(c.MeanGap)) + 1 {
		hold := bw.Tick(src.Exp(c.MeanHold)) + 1
		gen, err := sessionGen(c.Traffic, c.Rate, src.Uint64())
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, Session{Arr: t, End: t + hold, Bits: gen.Generate(hold).Arrivals()})
	}
	return sessions, nil
}

// sessionGen builds the within-session bit process. The nominal rate is
// the mean in every model; the models differ in how the bits spread.
func sessionGen(kind string, rate bw.Rate, seed uint64) (Generator, error) {
	switch kind {
	case "cbr":
		return CBR{Rate: rate}, nil
	case "mmpp":
		return MMPP{
			Seed:     seed,
			Rates:    []bw.Rate{rate / 2, rate, 2 * rate},
			StayProb: 0.9,
		}, nil
	case "heavytail":
		// Pareto(1.5) bursts of mean 3*MinBurst = 6R every ~7 ticks keep
		// the long-run mean near the nominal rate with heavy-tailed
		// spikes.
		return ParetoBurst{
			Seed:        seed,
			Alpha:       1.5,
			MinBurst:    bw.Volume(2*rate, 1),
			MeanGap:     6,
			SpreadTicks: 2,
		}, nil
	}
	return nil, fmt.Errorf("traffic: unknown session traffic %q", kind)
}

package load

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/trace"
)

// pendingBurst tracks one sent burst until the gateway's cumulative
// served counter covers it.
type pendingBurst struct {
	// threshold is the cumulative bits sent including this burst: once
	// Stats.Served reaches it, the burst is fully delivered.
	threshold bw.Bits
	sent      time.Time
}

// runSession drives one client session for its whole lifecycle:
// ramp delay, dial (with retry), traffic, drain, explicit release.
func runSession(cfg Config, id int, res *SessionResult) {
	res.ID = id
	s := cfg.swarm
	if s != nil {
		s.active.Add(1)
		defer s.active.Add(-1)
		defer func() {
			if res.Err != nil {
				s.errors.Inc()
			}
		}()
	}
	if cfg.Ramp > 0 && cfg.Sessions > 1 {
		time.Sleep(cfg.Ramp * time.Duration(id) / time.Duration(cfg.Sessions))
	}

	c, err := dialRetry(cfg)
	if err != nil {
		res.Err = err
		return
	}
	defer c.Close()
	res.Slot = c.Session()
	s.emit(obs.Event{Type: obs.EventSessionOpen, Session: int(c.Session()), Rule: "swarm"})

	// Pre-generate the arrival schedule: one entry per wall-clock tick.
	ticks := bw.Tick(cfg.Duration / cfg.Tick)
	if ticks < 1 {
		ticks = 1
	}
	tr := cfg.Gen(id).Generate(ticks)

	switch cfg.Mode {
	case ClosedLoop:
		err = closedLoop(cfg, c, tr, res)
	default:
		err = openLoop(cfg, c, tr, res)
	}
	if err != nil {
		res.Err = err
		return
	}

	// Final accounting, then hand the slot back explicitly so it is
	// free the moment this function returns.
	st, err := c.Stats()
	if err != nil {
		res.Err = fmt.Errorf("final stats: %w", err)
		return
	}
	res.BitsServed = st.Served
	res.FinalQueued = st.Queued
	res.Changes = st.Changes
	res.MaxDelayTicks = st.MaxDelay
	if err := c.Release(); err != nil {
		res.Err = fmt.Errorf("release: %w", err)
		return
	}
	res.Released = true
	s.emit(obs.Event{Type: obs.EventSessionClose, Session: int(c.Session()), Rule: "swarm"})
}

// dialRetry dials the gateway, backing off exponentially on transient
// failures (including slot exhaustion while earlier sessions release).
func dialRetry(cfg Config) (*gateway.Client, error) {
	backoff := 5 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= cfg.DialRetries; attempt++ {
		c, err := gateway.DialSession(cfg.Addr, cfg.DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if errors.Is(err, gateway.ErrSessionLimit) {
			cfg.swarm.openFailInc()
			cfg.swarm.emit(obs.Event{Type: obs.EventOpenFail, Session: -1, Rule: "swarm"})
		}
		if !retryable(err) {
			break
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	return nil, fmt.Errorf("dial: %w", lastErr)
}

// retryable reports whether a dial error is worth retrying: slot
// exhaustion always is (slots recycle), as are transient network
// failures (listen backlog overflow or descriptor pressure under a
// thundering herd).
func retryable(err error) bool {
	if errors.Is(err, gateway.ErrSessionLimit) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true // gateway shed the connection mid-open
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// poll performs one STATS round-trip, recording its RTT and the queue
// high-water mark, and settles every pending burst the served counter
// now covers. Samples land in the session-local histograms and, when a
// registry is attached, the swarm-wide live ones.
func poll(c *gateway.Client, s *swarmObs, res *SessionResult, pending []pendingBurst) ([]pendingBurst, error) {
	t0 := time.Now()
	st, err := c.Stats()
	if err != nil {
		return pending, fmt.Errorf("stats: %w", err)
	}
	now := time.Now()
	rtt := int64(now.Sub(t0))
	res.RTT.Observe(rtt)
	if st.Queued > res.MaxQueued {
		res.MaxQueued = st.Queued
	}
	var delivered int64
	for len(pending) > 0 && pending[0].threshold <= st.Served {
		lat := int64(now.Sub(pending[0].sent))
		res.Delivery.Observe(lat)
		if s != nil {
			s.delivery.Observe(lat)
		}
		res.Delivered++
		delivered++
		pending = pending[1:]
	}
	if s != nil {
		s.rtt.Observe(rtt)
		s.delivered.Add(delivered)
	}
	return pending, nil
}

// openLoop sends tr on a fixed wall-clock schedule — one trace tick per
// cfg.Tick — polling stats each tick, then drains.
func openLoop(cfg Config, c *gateway.Client, tr *trace.Trace, res *SessionResult) error {
	ticker := time.NewTicker(cfg.Tick)
	defer ticker.Stop()
	var (
		pending []pendingBurst
		err     error
	)
	for t := bw.Tick(0); t < tr.Len(); t++ {
		<-ticker.C
		if burst := tr.At(t); burst > 0 {
			if serr := c.Send(burst); serr != nil {
				return fmt.Errorf("send tick %d: %w", t, serr)
			}
			res.Bursts++
			res.BitsSent += burst
			cfg.swarm.sent(burst)
			pending = append(pending, pendingBurst{threshold: res.BitsSent, sent: time.Now()})
		}
		if pending, err = poll(c, cfg.swarm, res, pending); err != nil {
			return err
		}
	}
	// Drain: keep polling until every burst is delivered or the drain
	// budget runs out (undelivered bursts stay uncounted in Delivered,
	// and Result.Drained flags the run).
	deadline := time.Now().Add(cfg.DrainTimeout)
	for len(pending) > 0 && time.Now().Before(deadline) {
		<-ticker.C
		if pending, err = poll(c, cfg.swarm, res, pending); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop sends each nonzero burst of tr only after the previous one
// has been served, measuring the gateway's service ceiling. The sending
// window still ends after cfg.Duration of wall-clock time.
func closedLoop(cfg Config, c *gateway.Client, tr *trace.Trace, res *SessionResult) error {
	ticker := time.NewTicker(cfg.Tick)
	defer ticker.Stop()
	stop := time.Now().Add(cfg.Duration)
	var (
		pending []pendingBurst
		err     error
	)
	for t := bw.Tick(0); t < tr.Len() && time.Now().Before(stop); t++ {
		burst := tr.At(t)
		if burst == 0 {
			continue
		}
		if serr := c.Send(burst); serr != nil {
			return fmt.Errorf("send burst %d: %w", res.Bursts, serr)
		}
		res.Bursts++
		res.BitsSent += burst
		cfg.swarm.sent(burst)
		pending = append(pending, pendingBurst{threshold: res.BitsSent, sent: time.Now()})
		deadline := time.Now().Add(cfg.DrainTimeout)
		for len(pending) > 0 {
			if time.Now().After(deadline) {
				return nil // wedged service: stop offering, keep accounting
			}
			<-ticker.C
			if pending, err = poll(c, cfg.swarm, res, pending); err != nil {
				return err
			}
		}
	}
	return nil
}

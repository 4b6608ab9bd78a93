package load

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/trace"
)

// conn is one multiplexed connection and the sessions riding it, driven
// by one goroutine. What it keeps per session is scalars: a SessionResult
// and a session.
type conn struct {
	cfg   *Config
	swarm *swarmObs
	m     *gateway.Mux // nil until dialed
	// sess is this connection's window of Result.PerSession, starting at
	// run-local session index first; live[i] is the engine state of
	// sess[i], for the sessions that opened.
	first int
	sess  []SessionResult
	live  []session
	// pending holds the bursts sent and not yet seen served, oldest first.
	pending []pendingBurst
	items   []gateway.BatchItem // one tick's sends, reused
	polls   []uint32            // one tick's stats requests, reused
}

// session is what the engine keeps for one open session besides its
// SessionResult: the trace it replays (possibly shared) and, in closed
// loop, how far into it the session has got.
type session struct {
	tr   *trace.Trace
	next bw.Tick
}

// pendingBurst tracks one sent burst until the gateway's cumulative
// served counter covers it.
type pendingBurst struct {
	sess int // index into conn.sess
	// threshold is the session's cumulative bits sent including this
	// burst: once its served counter reaches it, the burst is delivered.
	threshold bw.Bits
	sent      time.Time
}

// await blocks until ch delivers or ctx is cancelled, and reports which:
// false means ctx ended the wait.
func await[T any](ctx context.Context, ch <-chan T) bool {
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// run is the connection's whole life: open (each session at its ramp
// offset), sending window, drain, final accounting, release. The sessions
// that did not open carry the reason; a failed exchange after that ends
// the connection, and every session on it carries that.
func (c *conn) run(ctx context.Context, start time.Time, opened *sync.WaitGroup) {
	c.swarm.active.Add(0, int64(len(c.sess)))
	defer c.swarm.active.Add(0, -int64(len(c.sess)))
	err := c.openAll(ctx, start)
	opened.Done()
	if c.m != nil {
		defer c.m.Close()
	}
	for i := len(c.live); i < len(c.sess); i++ {
		c.sess[i].Err = err
	}
	if len(c.live) > 0 {
		err = c.drive(ctx)
		for i := range c.live {
			c.sess[i].Err = err
		}
	}
}

// openAll opens the connection's sessions in order, none before its
// share of the ramp has passed, and realizes their traces. It stops at
// the first session that cannot be opened.
func (c *conn) openAll(ctx context.Context, start time.Time) error {
	for i := range c.sess {
		id := c.first + i
		await(ctx, time.After(time.Until(start.Add(c.cfg.Ramp*time.Duration(id)/time.Duration(c.cfg.Sessions)))))
		slot, err := c.openOne(ctx)
		if err != nil {
			return err
		}
		c.sess[i].Slot = slot
		c.live = append(c.live, session{tr: c.cfg.Gen(id).Generate(c.cfg.ticks())})
		c.swarm.emit(obs.EventSessionOpen, int(slot))
	}
	return nil
}

// dialTimeout bounds a dial and every request/reply exchange after it;
// an open is retried dialRetries times (a redial after a transient
// network failure, a new OPEN after ErrSessionLimit). Tests shorten both.
var dialTimeout, dialRetries = 5 * time.Second, 10

// openOne opens the connection's next session, dialing first if the
// connection is not up, and backs off exponentially between retries. An
// OPENFAIL is retried on the same connection (slots recycle while earlier
// sessions release); a transient network failure is retried by redialing,
// as long as no session would be lost with the old connection.
func (c *conn) openOne(ctx context.Context) (uint32, error) {
	backoff := 5 * time.Millisecond
	var err error
	for attempt := 0; attempt <= dialRetries && ctx.Err() == nil; attempt++ {
		if attempt > 0 {
			await(ctx, time.After(backoff))
			backoff = min(2*backoff, 500*time.Millisecond)
		}
		if c.m == nil {
			if c.m, err = gateway.DialMux(c.cfg.Addr, dialTimeout); err != nil {
				if retryable(err) {
					continue
				}
				break
			}
			c.m.TraceEvery(c.cfg.TraceEvery)
		}
		t0 := time.Now()
		var slot uint32
		if slot, err = c.m.Open(); err == nil {
			c.swarm.opens.Observe(0, int64(time.Since(t0)))
			return slot, nil
		}
		switch {
		case errors.Is(err, gateway.ErrSessionLimit):
			c.swarm.openFailed.Inc(0)
			c.swarm.openFails.Inc(0)
			c.swarm.emit(obs.EventOpenFail, -1)
		case retryable(err) && len(c.live) == 0:
			c.m.Close()
			c.m = nil
		default:
			return 0, fmt.Errorf("open: %w", err)
		}
	}
	return 0, fmt.Errorf("dial: %w", errors.Join(err, ctx.Err()))
}

// retryable reports whether a dial or open error is worth retrying on a
// new connection: transient network failures (listen backlog overflow or
// descriptor pressure under a thundering herd).
func retryable(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true // gateway shed the connection mid-open
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// drive runs the opened sessions from their first tick to their release.
// The first failed exchange is returned at once: the Mux is unusable
// after it, so there is nothing left to account for or release.
func (c *conn) drive(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	// Sending window: one trace tick per wall-clock tick.
	for t := bw.Tick(0); t < c.cfg.ticks() && await(ctx, ticker.C); t++ {
		if err := c.send(t); err != nil {
			return err
		}
	}
	// Drain: keep polling until every burst is delivered or the budget
	// runs out (undelivered bursts stay uncounted in Delivered, and
	// Result.Drained flags the run).
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for len(c.pending) > 0 && time.Now().Before(deadline) && await(ctx, ticker.C) {
		if err := c.poll(false); err != nil {
			return err
		}
	}
	// Final accounting in one sweep over every session, then hand each
	// slot back explicitly so it is free the moment Run returns.
	if err := c.poll(true); err != nil {
		return err
	}
	for i := range c.live {
		r := &c.sess[i]
		if err := c.m.CloseSession(r.Slot); err != nil {
			return fmt.Errorf("release: %w", err)
		}
		r.Released = true
		c.swarm.emit(obs.EventSessionClose, int(r.Slot))
	}
	return nil
}

// send offers tick t's bursts as one SendBatch — in open loop every
// session's trace entry for t, in closed loop the next nonzero entry of
// each session that has nothing outstanding — and polls.
func (c *conn) send(t bw.Tick) error {
	c.items = c.items[:0]
	now := time.Now()
	var bits bw.Bits
	for i := range c.live {
		s, r := &c.live[i], &c.sess[i]
		at := t
		if c.cfg.Mode == ClosedLoop {
			if r.Delivered < r.Bursts {
				continue
			}
			for s.next < s.tr.Len() && s.tr.At(s.next) == 0 {
				s.next++
			}
			at = s.next
			s.next++
		}
		burst := s.tr.At(at)
		if burst == 0 {
			continue
		}
		r.Bursts++
		r.BitsSent += burst
		bits += burst
		c.items = append(c.items, gateway.BatchItem{Session: r.Slot, Bits: burst})
		c.pending = append(c.pending, pendingBurst{sess: i, threshold: r.BitsSent, sent: now})
	}
	if len(c.items) > 0 {
		if err := c.m.SendBatch(c.items); err != nil {
			return fmt.Errorf("send tick %d: %w", t, err)
		}
		c.swarm.bursts.Add(0, int64(len(c.items)))
		c.swarm.bitsSent.Add(0, int64(bits))
	}
	return c.poll(false)
}

// poll fetches, in one StatsBatch, the counters of exactly the sessions
// with a burst outstanding — or of every session, for the final
// accounting — records the round trip, and settles every pending burst
// a served counter now covers.
func (c *conn) poll(all bool) error {
	c.polls = c.polls[:0]
	for i := range c.live {
		if r := &c.sess[i]; all || r.Delivered < r.Bursts {
			c.polls = append(c.polls, r.Slot)
		}
	}
	if len(c.polls) == 0 {
		return nil
	}
	t0 := time.Now()
	stats, err := c.m.StatsBatch(c.polls)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	now := time.Now()
	c.swarm.rtts.Observe(0, int64(now.Sub(t0)))
	c.swarm.rtt.Observe(0, int64(now.Sub(t0)))
	polled := 0 // stats is in the order the scan above met the sessions
	for i := range c.live {
		if r := &c.sess[i]; all || r.Delivered < r.Bursts {
			st := stats[polled]
			polled++
			r.BitsServed, r.FinalQueued = st.Served, st.Queued
			r.Changes, r.MaxDelayTicks = st.Changes, st.MaxDelay
			r.MaxQueued = max(r.MaxQueued, st.Queued)
		}
	}
	kept := c.pending[:0]
	for _, p := range c.pending {
		r := &c.sess[p.sess]
		if r.BitsServed < p.threshold {
			kept = append(kept, p)
			continue
		}
		lat := now.Sub(p.sent)
		c.swarm.deliveries.Observe(0, int64(lat))
		c.swarm.delivery.Observe(0, int64(lat))
		r.Delivered++
		r.MaxDelivery = max(r.MaxDelivery, lat)
	}
	c.swarm.delivered.Add(0, int64(len(c.pending)-len(kept)))
	c.pending = kept
	return nil
}

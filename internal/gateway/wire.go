package gateway

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime/debug"
	"time"

	"dynbw/internal/obs"
	"dynbw/internal/route"
)

// Error classes for the gateway_errors_total counter: how a connection
// handler ended other than by a clean CLOSE.
const (
	errClassEOF      = "eof"      // client hung up without CLOSE
	errClassTimeout  = "timeout"  // idle/wedged client hit IdleTimeout
	errClassProtocol = "protocol" // malformed or out-of-order message
	errClassIO       = "io"       // any other read/write failure
)

// connState is one connection's session-ownership state: the stripe it
// was assigned at accept time (where metric updates land and where the
// OPEN slot probe starts) and the set of sessions it has opened — a
// connection may multiplex any number of them. connStates are recycled
// through Gateway.csPool so connection churn stops allocating; getConnState
// and putConnState own the reset protocol.
type connState struct {
	stripe  int // shard stripe: home shard, event-ring stripe
	mstripe int // metrics stripe: striped counters/histograms, sampler
	// owned is keyed by the wire ID, whose width it shares; peak is the
	// most sessions it has held at once since the state left the pool.
	owned map[uint32]struct{}
	peak  int
	// span is the per-connection stage clock, armed for timed messages
	// only; pending carries a client-sent TRACE envelope to the message
	// that follows it.
	span    spanScratch
	pending pendingTrace
	// rd and wr are the connection's pooled buffered endpoints; replies
	// accumulate in wr and leave in one write when the read side would
	// block (see handle).
	rd *bufio.Reader
	wr *bufio.Writer
	// armedAt is when the connection deadline was last armed; the
	// SetDeadline syscall is refreshed only once deadlineStale says a
	// meaningful fraction of idleTimeout has passed.
	armedAt time.Time
	// groups accumulates batched DATA updates per shard, so one BATCH
	// frame takes each shard lock once instead of once per message.
	groups [][]pendingAdd
	// scratch backs every header/body read and reply assembly on the
	// wire path. Reading into a function-local array through the
	// io.Reader interface makes the array escape — one heap allocation
	// per message; reading into connection state costs nothing.
	scratch [statsReplyLen]byte
}

// pendingAdd is one batched DATA update awaiting its shard-group apply.
type pendingAdd struct {
	id   uint32 // wire session ID
	bits int64
}

// getConnState checks a recycled connState out of the pool (or builds a
// fresh one) and binds it to a new connection's stripes.
func (g *Gateway) getConnState(stripe, mstripe int) *connState {
	cs, _ := g.csPool.Get().(*connState)
	if cs == nil {
		cs = &connState{
			owned:  make(map[uint32]struct{}),
			rd:     bufio.NewReaderSize(nil, connReadBufSize),
			wr:     bufio.NewWriterSize(nil, connWriteBufSize),
			groups: make([][]pendingAdd, len(g.shards)),
		}
	}
	cs.stripe, cs.mstripe = stripe, mstripe
	return cs
}

// pooledOwnedMax is the most sessions a pooled connState's ownership map
// may have held and still be kept: a Go map never shrinks, so one that
// served a connection of 50 000 sessions would otherwise park about 0.6 MB
// in the pool for whichever connection comes next.
const pooledOwnedMax = 1024

// putConnState scrubs per-connection state and returns it to the pool.
// The buffered endpoints keep their storage but drop the conn reference;
// the ownership map is kept unless it grew past pooledOwnedMax.
func (g *Gateway) putConnState(cs *connState) {
	if cs.peak > pooledOwnedMax {
		cs.owned = make(map[uint32]struct{})
	} else {
		clear(cs.owned)
	}
	cs.peak = 0
	cs.span = spanScratch{}
	cs.pending = pendingTrace{}
	cs.armedAt = time.Time{}
	for i := range cs.groups {
		cs.groups[i] = cs.groups[i][:0]
	}
	cs.rd.Reset(nil)
	cs.wr.Reset(io.Discard)
	g.csPool.Put(cs)
}

// logSession picks a representative session ID for diagnostics: the
// session when the connection owns exactly one (the common Client
// case), -1 otherwise.
func (cs *connState) logSession() int {
	if len(cs.owned) == 1 {
		for id := range cs.owned {
			return int(id)
		}
	}
	return -1
}

// acceptLoop accepts client connections, backing off exponentially on
// persistent Accept errors (up to maxAcceptBackoff) instead of busy
// spinning — under file-descriptor pressure a tight retry loop would
// starve the very handlers whose exits free descriptors. Each accepted
// connection is assigned a shard stripe round-robin.
func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	var backoff time.Duration
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			select {
			case <-g.acceptStop:
				return
			default:
			}
			g.m.acceptErrors.Inc()
			g.log.Log(slog.LevelWarn, "accept", "gateway: accept failed", "err", err, "backoff", backoff)
			if backoff == 0 {
				backoff = time.Millisecond
			} else if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			select {
			case <-g.acceptStop:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		n := int(g.nextConn.Add(1) - 1)
		stripe := n % len(g.shards)
		sh := g.shards[stripe]
		g.m.accepts.Inc()
		g.m.conns.Add(1)
		sh.mu.Lock()
		sh.conns[conn] = struct{}{}
		sh.mu.Unlock()
		g.wg.Add(1)
		go g.handle(conn, stripe, n%g.m.connStripes)
	}
}

// handle serves one client connection: a deadline-bounded loop of
// handleMessage calls over pooled buffered endpoints. Replies accumulate
// in the connection's write buffer and are flushed only when the read
// side would block (no complete pipelined input left), so a burst of
// requests — or a BATCH frame — costs one reply write instead of one per
// message. On exit every session the connection still owns is released
// — also when the exit is a panic in the handler, which costs this
// connection and nothing else.
func (g *Gateway) handle(conn net.Conn, stripe, mstripe int) {
	defer g.wg.Done()
	defer conn.Close()
	cs := g.getConnState(stripe, mstripe)
	home := g.shards[stripe]
	defer func() {
		if p := recover(); p != nil {
			g.m.handlerPanics.Inc()
			g.log.Log(slog.LevelError, "panic-handler", "gateway: connection handler panicked; connection dropped",
				"remote", conn.RemoteAddr().String(), "sessions", len(cs.owned), "panic", p, "stack", string(debug.Stack()))
		}
		g.releaseAll(cs)
		home.mu.Lock()
		delete(home.conns, conn)
		home.mu.Unlock()
		g.m.conns.Add(-1)
		g.putConnState(cs)
	}()
	cs.rd.Reset(conn)
	cs.wr.Reset(conn)
	for {
		if g.idleTimeout > 0 {
			// The deadline covers both the read of the next request and
			// the write of its reply; re-arming is amortized to at most a
			// few SetDeadline syscalls per idle period.
			if now := time.Now(); deadlineStale(cs.armedAt, now, g.idleTimeout) {
				if err := conn.SetDeadline(now.Add(g.idleTimeout)); err != nil {
					return
				}
				cs.armedAt = now
			}
		}
		if err := g.handleMessage(cs.rd, cs.wr, cs); err != nil {
			cs.wr.Flush() // best effort: replies already owed to the peer
			g.observeDisconnect(conn, err, cs)
			return
		}
		if cs.rd.Buffered() == 0 {
			if err := cs.wr.Flush(); err != nil {
				g.observeDisconnect(conn, err, cs)
				return
			}
		}
	}
}

// deadlineStale reports whether the connection deadline armed at armedAt
// must be refreshed at now: only once a quarter of the idle timeout has
// elapsed. This amortizes the SetDeadline syscall across messages while
// guaranteeing an idle client is cut off after at most one full (and at
// least 3/4 of an) idleTimeout of silence.
func deadlineStale(armedAt, now time.Time, idleTimeout time.Duration) bool {
	return now.Sub(armedAt) >= idleTimeout/4
}

// observeDisconnect classifies why a connection handler is exiting and
// routes it through the error counters, the rate-limited log, and (for
// idle disconnects) the event ring. A bare EOF is a client hanging up
// without CLOSE — counted, but not log-worthy. A connection the gateway
// closed itself (Shutdown force-closing what is still live) is no
// client's error: neither counted nor logged.
func (g *Gateway) observeDisconnect(conn net.Conn, err error, cs *connState) {
	var nerr net.Error
	switch {
	case errors.Is(err, net.ErrClosed):
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		g.m.errors[errClassEOF].Inc()
	case errors.As(err, &nerr) && nerr.Timeout():
		g.m.errors[errClassTimeout].Inc()
		g.emitAt(cs.stripe, obs.Event{Type: obs.EventIdleDisconnect, Session: cs.logSession()})
		g.log.Log(slog.LevelWarn, "idle", "gateway: disconnecting idle client",
			"remote", conn.RemoteAddr().String(), "sessions", len(cs.owned))
	case errors.Is(err, errProtocol):
		g.m.errors[errClassProtocol].Inc()
		g.log.Log(slog.LevelWarn, "protocol", "gateway: protocol violation",
			"remote", conn.RemoteAddr().String(), "sessions", len(cs.owned), "err", err)
	default:
		g.m.errors[errClassIO].Inc()
		g.log.Log(slog.LevelWarn, "io", "gateway: connection error",
			"remote", conn.RemoteAddr().String(), "sessions", len(cs.owned), "err", err)
	}
}

// openSession begins a session and returns the ID handed to the client.
// Without a router it probes the shards round-robin from the
// connection's home stripe (first-fit within each shard).
func (g *Gateway) openSession(start int) (int, error) {
	if g.router != nil {
		return g.openRouted()
	}
	for p := 0; p < len(g.shards); p++ {
		if id, ok := g.shards[(start+p)%len(g.shards)].open(); ok {
			g.m.sessions.Add(1)
			return id, nil
		}
	}
	return 0, ErrSessionLimit
}

// openRouted lets the router choose the shard. The router records a
// session under an ID, but the session's index is its slot, which the
// chosen shard picks only after the placement: the reservation is made
// under a provisional key — negative, so no index can collide with it,
// and unique to this OPEN — and filed under the index once the shard has
// claimed a slot. That slot's last tenant released its reservation under
// the same shard lock as the slot, so the index is free in the router's
// books. A shard holds no more sessions than the router reserved on it,
// so open fails only when the router admits more than a shard's slots.
func (g *Gateway) openRouted() (int, error) {
	key := -int(g.routed.Add(1))
	l := g.router.Place(route.Session{ID: key, Rate: 1})
	if l == route.Blocked {
		return 0, ErrSessionLimit
	}
	id, ok := g.shards[l].open()
	if !ok {
		g.router.Release(key)
		return 0, ErrSessionLimit
	}
	g.router.Rekey(key, id&g.indexMask)
	g.m.sessions.Add(1)
	return id, nil
}

// releaseSession ends the session behind a validated session ID — on
// CLOSE, or when its connection dies — and counts the bits that dropped.
func (g *Gateway) releaseSession(id int) {
	sh := g.shardOf(id)
	g.m.closedBits.Add(sh.idx, int64(sh.release(id)))
	g.m.sessions.Add(-1)
}

// releaseAll is a connection's death: every session it owns ends.
func (g *Gateway) releaseAll(cs *connState) {
	for id := range cs.owned {
		g.releaseSession(int(id))
	}
	clear(cs.owned)
}

// handleMessage reads exactly one wire unit from r — a single message,
// or a whole BATCH frame — applies it, and writes any replies to w. cs
// tracks the sessions owned by this connection; handleMessage updates it
// on OPEN and CLOSE. A non-nil error (read failure or protocol
// violation) means the connection must be dropped. The function is the
// entire wire-facing surface of the gateway and is fuzzed by
// FuzzHandleMessage.
func (g *Gateway) handleMessage(r io.Reader, w io.Writer, cs *connState) error {
	if _, err := io.ReadFull(r, cs.scratch[:1]); err != nil {
		return err
	}
	typ := cs.scratch[0]
	if typ == typeBatch {
		return g.handleBatch(r, w, cs)
	}
	return g.handleOne(r, w, cs, typ, false)
}

// handleOne handles one logical message whose type byte has been read,
// unwrapping a TRACE envelope if present. Inside a BATCH frame
// (inBatch) a plain DATA message is not applied immediately: it is
// accumulated into the per-shard groups and applied by the next
// flushBatchData call, so one batch takes each shard lock once. A timed
// DATA (sampled or client-traced) skips the group, so its stage
// observations and span show a real dispatch and apply; that is safe
// because DATA updates commute — ordering only matters against non-DATA
// messages, which flush first.
func (g *Gateway) handleOne(r io.Reader, w io.Writer, cs *connState, typ byte, inBatch bool) error {
	if typ == typeTrace {
		// A TRACE envelope is not a message: read the trace ID, then
		// require the real message immediately behind it. Nesting
		// envelopes — or wrapping a BATCH frame — is a protocol violation.
		if _, err := io.ReadFull(r, cs.scratch[:8]); err != nil {
			return err
		}
		g.m.message(typeTrace).Inc(cs.mstripe)
		cs.pending = pendingTrace{id: binary.BigEndian.Uint64(cs.scratch[:8]), set: true}
		if _, err := io.ReadFull(r, cs.scratch[:1]); err != nil {
			return err
		}
		if cs.scratch[0] == typeTrace {
			return fmt.Errorf("%w: nested TRACE envelope", errProtocol)
		}
		if cs.scratch[0] == typeBatch {
			return fmt.Errorf("%w: TRACE envelope wrapping a BATCH frame", errProtocol)
		}
		typ = cs.scratch[0]
	}
	g.m.message(typ).Inc(cs.mstripe)
	if inBatch && typ != typeData {
		// Ordering barrier: a non-DATA message must observe every batched
		// DATA update that preceded it in the stream (e.g. DATA then
		// CLOSE on the same session).
		g.flushBatchData(cs)
	}
	g.spanBegin(cs, typ)
	var err error
	if inBatch && typ == typeData && !cs.span.sampled {
		err = g.batchData(r, cs)
	} else {
		err = g.applyMessage(r, w, cs, typ)
	}
	g.spanEnd(cs, err)
	return err
}

// handleBatch drains one BATCH frame: a big-endian uint16 count of
// logical messages (TRACE envelopes ride in front of the message they
// wrap and do not count), each handled in stream order with DATA
// grouped per shard, then one flush applying every group under a single
// lock acquisition per shard. An empty batch is a legal no-op; a count
// above MaxBatch or a nested BATCH is a protocol violation. On a
// mid-batch error the unapplied groups are discarded — the connection
// is dropped, voiding the rest of the batch.
func (g *Gateway) handleBatch(r io.Reader, w io.Writer, cs *connState) error {
	if _, err := io.ReadFull(r, cs.scratch[:2]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint16(cs.scratch[:2]))
	if n > MaxBatch {
		return fmt.Errorf("%w: BATCH count %d exceeds %d", errProtocol, n, MaxBatch)
	}
	g.m.message(typeBatch).Inc(cs.mstripe)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, cs.scratch[:1]); err != nil {
			return err
		}
		typ := cs.scratch[0]
		if typ == typeBatch {
			return fmt.Errorf("%w: nested BATCH frame", errProtocol)
		}
		if err := g.handleOne(r, w, cs, typ, true); err != nil {
			return err
		}
	}
	g.flushBatchData(cs)
	return nil
}

// batchData parses one DATA message inside a BATCH frame and appends it
// to its shard's group, deferring the shard-lock acquisition to the next
// flushBatchData call. Validation happens here, at parse time, by the
// parser the unbatched path uses.
func (g *Gateway) batchData(r io.Reader, cs *connState) error {
	id, bits, err := g.readData(r, cs)
	if err != nil {
		return err
	}
	si := g.shardOf(id).idx
	cs.groups[si] = append(cs.groups[si], pendingAdd{id: uint32(id), bits: bits})
	g.spanMark(cs, stageDispatch)
	return nil
}

// readData reads the body of one DATA message and validates it: the
// session must be one this connection owns and the bit count may not be
// negative. Batched and unbatched DATA both come through here.
func (g *Gateway) readData(r io.Reader, cs *connState) (id int, bits int64, err error) {
	if _, err := io.ReadFull(r, cs.scratch[:12]); err != nil {
		return 0, 0, err
	}
	g.spanMark(cs, stageRead)
	wire := binary.BigEndian.Uint32(cs.scratch[0:])
	id = int(wire)
	bits = int64(binary.BigEndian.Uint64(cs.scratch[4:12]))
	if _, ok := cs.owned[wire]; !ok || bits < 0 {
		return 0, 0, fmt.Errorf("%w: DATA session=%d bits=%d (owns %d sessions)", errProtocol, id, bits, len(cs.owned))
	}
	cs.span.sess = id
	return id, bits, nil
}

// flushBatchData applies every accumulated batched-DATA group, one
// shard-lock acquisition per shard with entries (shard.addGroup). The
// per-group apply duration lands in the apply-stage histogram once per
// group — batched messages share the lock round, so they share its
// stage sample, and two clock reads per group (not per message) keep the
// lock wait of the untimed majority visible.
func (g *Gateway) flushBatchData(cs *connState) {
	for si := range cs.groups {
		grp := cs.groups[si]
		if len(grp) == 0 {
			continue
		}
		var start time.Time
		if g.m.exchange != nil {
			start = time.Now()
		}
		g.m.policedBits.Add(cs.mstripe, g.shards[si].addGroup(grp))
		if g.m.exchange != nil {
			g.m.stages[stageApply].Observe(cs.mstripe, int64(time.Since(start)))
		}
		cs.groups[si] = grp[:0]
	}
}

// applyMessage dispatches one message whose type byte has been read,
// marking the wire-path stages on cs's span clock as it goes (no-ops
// unless the message is timed).
func (g *Gateway) applyMessage(r io.Reader, w io.Writer, cs *connState, typ byte) error {
	switch typ {
	case typeOpen:
		id, err := g.openSession(cs.stripe)
		g.spanMark(cs, stageApply)
		if err != nil {
			// Slot exhaustion is an expected steady-state condition under
			// load, not a protocol violation: tell the client and keep the
			// connection so it can retry after backoff.
			g.m.openFails.Inc()
			g.emitAt(cs.stripe, obs.Event{Type: obs.EventOpenFail, Session: -1})
			if _, werr := w.Write([]byte{typeOpenFail}); werr != nil {
				return werr
			}
			g.spanMark(cs, stageWrite)
			return nil
		}
		cs.owned[uint32(id)] = struct{}{}
		cs.peak = max(cs.peak, len(cs.owned))
		cs.span.sess = id
		g.emitAt(g.shardOf(id).idx, obs.Event{Type: obs.EventSessionOpen, Session: id})
		cs.scratch[0] = typeOpened
		binary.BigEndian.PutUint32(cs.scratch[1:5], uint32(id))
		if _, err := w.Write(cs.scratch[:5]); err != nil {
			return err
		}
		g.spanMark(cs, stageWrite)
	case typeData:
		id, bits, err := g.readData(r, cs)
		if err != nil {
			return err
		}
		g.m.policedBits.Add(cs.mstripe, g.shardOf(id).add(cs, id, bits))
		g.spanMark(cs, stageApply)
	case typeStats:
		if _, err := io.ReadFull(r, cs.scratch[:4]); err != nil {
			return err
		}
		g.spanMark(cs, stageRead)
		wire := binary.BigEndian.Uint32(cs.scratch[:4])
		id := int(wire)
		if _, ok := cs.owned[wire]; !ok {
			return fmt.Errorf("%w: STATS session=%d (owns %d sessions)", errProtocol, id, len(cs.owned))
		}
		cs.span.sess = id
		served, queued, maxDelay, changes := g.shardOf(id).stats(cs, id)
		g.spanMark(cs, stageApply)
		cs.scratch[0] = typeStatsR
		binary.BigEndian.PutUint64(cs.scratch[1:], uint64(served))
		binary.BigEndian.PutUint64(cs.scratch[9:], uint64(queued))
		binary.BigEndian.PutUint64(cs.scratch[17:], uint64(maxDelay))
		binary.BigEndian.PutUint64(cs.scratch[25:], uint64(changes))
		if _, err := w.Write(cs.scratch[:statsReplyLen]); err != nil {
			return err
		}
		g.spanMark(cs, stageWrite)
	case typeClose:
		if _, err := io.ReadFull(r, cs.scratch[:4]); err != nil {
			return err
		}
		g.spanMark(cs, stageRead)
		wire := binary.BigEndian.Uint32(cs.scratch[:4])
		id := int(wire)
		if _, ok := cs.owned[wire]; !ok {
			return fmt.Errorf("%w: CLOSE session=%d (owns %d sessions)", errProtocol, id, len(cs.owned))
		}
		cs.span.sess = id
		// Release before replying: a client that has read CLOSED may dial
		// or OPEN again immediately and must find the slot free.
		g.releaseSession(id)
		delete(cs.owned, wire)
		g.emitAt(g.shardOf(id).idx, obs.Event{Type: obs.EventSessionClose, Session: id})
		g.spanMark(cs, stageApply)
		if _, err := w.Write([]byte{typeClosed}); err != nil {
			return err
		}
		g.spanMark(cs, stageWrite)
	default:
		return fmt.Errorf("%w: unknown message type %d", errProtocol, typ)
	}
	return nil
}

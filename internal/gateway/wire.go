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
	"sync"
	"time"

	"dynbw/internal/bw"
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

// connState is one connection's state: the stripe it was assigned at
// accept time (where metric updates land and where the OPEN slot probe
// starts), the serial its sessions' owner words carry — a connection may
// multiplex any number of sessions — and its wire-path scratch.
// connStates are recycled through Gateway.csPool so connection churn
// stops allocating; getConnState and putConnState own the reset protocol.
type connState struct {
	stripe  int // shard stripe: home shard, event-ring stripe
	mstripe int // metrics stripe: striped counters/histograms, sampler
	// serial names the connection in the owner words of the sessions it
	// opens (Gateway.owners); sessions counts those it owns, and lo and
	// hi are the lowest and highest index it has opened since it last
	// owned none. Nothing here grows with its sessions.
	serial   uint32
	sessions int
	lo, hi   int
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
	// A unit's waiting work (handleUnit): lists holds its untimed DATA
	// and STATS, one list per shard in stream order, data counts the DATA
	// among them, and replies holds the STATS answers in stream order;
	// ids holds the session IDs of those whose ownership is still to be
	// checked (check), in stream order. Each is bounded by MaxBatch and
	// keeps its capacity in the pool.
	lists   [][]op
	data    int
	replies []statsReply
	ids     []uint32
	// in reads the current unit (handleMessage); counts tallies its
	// messages by counter index (msgIndex), which reach the striped
	// counters once, when the unit ends; sample is the sampler position
	// of its next message.
	in     unitReader
	counts [typeBatch + 1]int64
	sample uint64
	// scratch assembles every reply on the wire path. A function-local
	// array written through the io.Writer interface would escape — one
	// heap allocation per message; connection state costs nothing.
	scratch [statsReplyLen]byte
}

// op is one DATA or STATS waiting in its shard's list: the session, and
// the bits of a DATA, or the index of a STATS reply in connState.replies
// (at is -1 for a DATA).
type op struct {
	id   uint32 // wire session ID
	at   int32
	bits int64
}

// statsReply is what a STATSR reply carries.
type statsReply struct {
	served, queued bw.Bits
	maxDelay       bw.Tick
	changes        int
}

// put encodes the reply into b and returns the wire message.
func (st statsReply) put(b *[statsReplyLen]byte) []byte {
	b[0] = typeStatsR
	binary.BigEndian.PutUint64(b[1:], uint64(st.served))
	binary.BigEndian.PutUint64(b[9:], uint64(st.queued))
	binary.BigEndian.PutUint64(b[17:], uint64(st.maxDelay))
	binary.BigEndian.PutUint64(b[25:], uint64(st.changes))
	return b[:]
}

// serialPool hands each live connection a serial no other live
// connection holds: a returned one if there is one, else the next unused,
// counting from 1, so 0 is never a serial. A serial is returned only once
// its connection's sessions are released (putConnState), when no owner
// word carries it any more. Serials therefore stay at or below the most
// connections ever live at once, far below the 2^32 that would wrap.
type serialPool struct {
	mu   sync.Mutex
	free []uint32 // guarded by serialPool.mu
	next uint32   // guarded by serialPool.mu; the serials handed out so far
}

func (p *serialPool) get() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.next++
	return p.next
}

func (p *serialPool) put(s uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, s)
}

// getConnState checks a recycled connState out of the pool (or builds a
// fresh one) and binds it to a new connection's stripes and a serial.
func (g *Gateway) getConnState(stripe, mstripe int) *connState {
	cs, _ := g.csPool.Get().(*connState)
	if cs == nil {
		cs = &connState{
			rd:    bufio.NewReaderSize(nil, connReadBufSize),
			wr:    bufio.NewWriterSize(nil, connWriteBufSize),
			lists: make([][]op, len(g.shards)),
		}
	}
	cs.stripe, cs.mstripe = stripe, mstripe
	cs.serial = g.serials.get()
	return cs
}

// putConnState ends every session the connection still owns, returns its
// serial, scrubs per-connection state and returns it to the pool. The
// buffered endpoints keep their storage but drop the conn reference.
func (g *Gateway) putConnState(cs *connState) {
	g.releaseAll(cs)
	g.serials.put(cs.serial)
	cs.serial = 0
	cs.span = spanScratch{}
	cs.pending = pendingTrace{}
	cs.armedAt = time.Time{}
	for i := range cs.lists {
		cs.lists[i] = cs.lists[i][:0]
	}
	cs.data = 0
	cs.replies = cs.replies[:0]
	cs.ids = cs.ids[:0]
	cs.counts = [len(cs.counts)]int64{}
	cs.rd.Reset(nil)
	cs.wr.Reset(io.Discard)
	g.csPool.Put(cs)
}

// logSession picks a representative session ID for diagnostics: the
// session when the connection owns exactly one, -1 otherwise.
func (g *Gateway) logSession(cs *connState) int {
	id := -1
	if cs.sessions == 1 {
		g.eachSession(cs, func(s int) { id = s })
	}
	return id
}

// eachSession calls f with the wire ID of every session cs owns, in
// index order: the owner words carrying its serial, found between the
// lowest and highest index it has opened, and no further once all are
// found. Words carrying cs's serial are written by cs's own handler
// only, so the walk reads them exactly, without a lock.
func (g *Gateway) eachSession(cs *connState, f func(id int)) {
	left := cs.sessions
	for i := cs.lo; left > 0 && i <= cs.hi; i++ {
		if w := g.owners[i].Load(); uint32(w>>32) == cs.serial {
			left--
			f(int(uint32(w)))
		}
	}
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
			g.m.acceptErrors.Inc(0)
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
		g.m.accepts.Inc(0)
		g.m.conns.Add(0, 1)
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
// (putConnState) — also when the exit is a panic in the handler, which
// costs this connection and nothing else.
func (g *Gateway) handle(conn net.Conn, stripe, mstripe int) {
	defer g.wg.Done()
	defer conn.Close()
	cs := g.getConnState(stripe, mstripe)
	home := g.shards[stripe]
	defer func() {
		if p := recover(); p != nil {
			g.m.handlerPanics.Inc(0)
			g.log.Log(slog.LevelError, "panic-handler", "gateway: connection handler panicked; connection dropped",
				"remote", conn.RemoteAddr().String(), "sessions", cs.sessions, "panic", p, "stack", string(debug.Stack()))
		}
		g.putConnState(cs)
		home.mu.Lock()
		delete(home.conns, conn)
		home.mu.Unlock()
		g.m.conns.Add(0, -1)
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
		g.m.errors[errClassEOF].Inc(0)
	case errors.As(err, &nerr) && nerr.Timeout():
		g.m.errors[errClassTimeout].Inc(0)
		g.emitAt(cs.stripe, obs.Event{Type: obs.EventIdleDisconnect, Session: g.logSession(cs)})
		g.log.Log(slog.LevelWarn, "idle", "gateway: disconnecting idle client",
			"remote", conn.RemoteAddr().String(), "sessions", cs.sessions)
	case errors.Is(err, errProtocol):
		g.m.errors[errClassProtocol].Inc(0)
		g.log.Log(slog.LevelWarn, "protocol", "gateway: protocol violation",
			"remote", conn.RemoteAddr().String(), "sessions", cs.sessions, "err", err)
	default:
		g.m.errors[errClassIO].Inc(0)
		g.log.Log(slog.LevelWarn, "io", "gateway: connection error",
			"remote", conn.RemoteAddr().String(), "sessions", cs.sessions, "err", err)
	}
}

// openSession begins a session for the connection with the given serial
// and returns the ID handed to the client. Without a router it probes the
// shards round-robin from the connection's home stripe (first-fit within
// each shard).
func (g *Gateway) openSession(start int, serial uint32) (int, error) {
	if g.router != nil {
		return g.openRouted(serial)
	}
	for p := 0; p < len(g.shards); p++ {
		if id, ok := g.shards[(start+p)%len(g.shards)].open(serial); ok {
			g.m.sessions.Add(0, 1)
			return id, nil
		}
	}
	return 0, ErrSessionLimit
}

// openRouted lets the router choose the shard, keying each OPEN by the
// count of routed OPENs before it (DAR's home link is the key mod k). A
// shard holds no more sessions than the router reserved on it, so open
// fails only when the router admits more than a shard's slots.
func (g *Gateway) openRouted(serial uint32) (int, error) {
	s := route.Session{ID: int(g.routed.Add(1) - 1), Rate: 1}
	l := g.router.Place(s)
	if l == route.Blocked {
		return 0, ErrSessionLimit
	}
	id, ok := g.shards[l].open(serial)
	if !ok {
		g.router.Release(s, l)
		return 0, ErrSessionLimit
	}
	g.m.sessions.Add(0, 1)
	return id, nil
}

// releaseSession ends the session behind a validated session ID — on
// CLOSE, or when its connection dies — and counts the bits that dropped.
func (g *Gateway) releaseSession(id int) {
	sh := g.shardOf(id)
	g.m.closedBits.Add(sh.idx, int64(sh.release(id)))
	g.m.sessions.Add(0, -1)
}

// releaseAll is a connection's death: every session it owns ends.
func (g *Gateway) releaseAll(cs *connState) {
	g.eachSession(cs, g.releaseSession)
	cs.sessions = 0
}

// handleMessage reads exactly one wire unit from r — a single message,
// or a whole BATCH frame — applies it, and writes any replies to w. cs
// is the connection, whose serial the sessions it OPENs carry in their
// owner words; handleMessage updates its session count on OPEN and
// CLOSE. A non-nil error (read failure or protocol violation) means the
// connection must be dropped. The function is the entire wire-facing
// surface of the gateway and is fuzzed by FuzzHandleMessage.
//
// It is the gateway's one decoder: every message is parsed where it lies
// in r's buffer (unitReader), which is refilled only when a message
// straddles its end. The unit's messages are counted once per type when
// it ends.
func (g *Gateway) handleMessage(r *bufio.Reader, w io.Writer, cs *connState) error {
	cs.in = unitReader{r: r}
	defer cs.in.done()
	b, err := cs.in.peek(1)
	if err != nil {
		return err
	}
	n := 1
	if b[0] == typeBatch {
		if b, err = cs.in.take(3); err != nil {
			return err
		}
		if n = int(binary.BigEndian.Uint16(b[1:])); n > MaxBatch {
			return fmt.Errorf("%w: BATCH count %d exceeds %d", errProtocol, n, MaxBatch)
		}
		cs.counts[typeBatch]++
	}
	err = g.handleUnit(w, cs, n)
	g.m.count(cs.mstripe, &cs.counts)
	return err
}

// unitReader reads a wire unit in place in a bufio.Reader's buffer: it
// holds a window on the buffered bytes and how far the unit has read
// into it, so a message costs a bounds check and a slice. The buffer is
// refilled only when a message straddles the window's end, and what the
// unit read is discarded from the reader then and when the unit is done.
type unitReader struct {
	r   *bufio.Reader
	buf []byte
	off int
}

// take returns the unit's next n bytes and moves past them. They are
// valid until the next take: a refill may move the buffer's contents.
func (u *unitReader) take(n int) ([]byte, error) {
	b, err := u.peek(n)
	u.off += len(b)
	return b, err
}

// peek returns the unit's next n bytes without moving past them. A
// message is far smaller than the smallest buffer bufio allows, so n
// always fits; a stream that ends part way is io.ErrUnexpectedEOF, as
// io.ReadFull has it.
func (u *unitReader) peek(n int) ([]byte, error) {
	if len(u.buf)-u.off < n {
		u.done()
		if _, err := u.r.Peek(n); err != nil {
			if err == io.EOF && u.r.Buffered() > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		u.buf, _ = u.r.Peek(u.r.Buffered())
	}
	return u.buf[u.off : u.off+n], nil
}

// done discards what the unit read from the reader and empties the
// window.
func (u *unitReader) done() {
	if u.off > 0 {
		u.r.Discard(u.off)
	}
	u.buf, u.off = nil, 0
}

// handleUnit handles the n logical messages of one unit in stream order.
// The unit takes its n sampler positions with one atomic add. Its
// untimed DATA and STATS wait in one list per shard (handleOne) and are
// applied when something must observe them, or when the unit ends — so a
// BATCH frame takes each shard lock once, and a lone message is a list
// of one. On an error the rest of the unit is void, and what was read
// before it is applied, as it would have been had each message come
// alone. A waiting ID that the connection does not own is such an error
// where it lies in the stream (check), so it wins over any error read
// after it.
func (g *Gateway) handleUnit(w io.Writer, cs *connState, n int) error {
	if n > 0 {
		cs.sample = g.sampler.Reserve(cs.mstripe, n)
	}
	for i := 0; i < n; i++ {
		if err := g.handleOne(w, cs); err != nil {
			if ferr := g.flush(w, cs, n > 1); errors.Is(ferr, errProtocol) {
				err = ferr
			}
			return err
		}
		cs.sample++
	}
	return g.flush(w, cs, n > 1)
}

// handleOne handles one logical message of a unit. DATA and STATS
// commute between rounds: a DATA adds to its slot's pending arrivals,
// which only a round moves on, and a STATS reads only what rounds write.
// So an untimed DATA or STATS joins its shard's list whatever waits
// there, and the lists keep the stream's order where it can be seen:
//   - OPEN, CLOSE and an unknown type flush the lists first, so they
//     observe every message ahead of them (DATA then CLOSE on one
//     session lands in order) and their replies follow the earlier ones;
//   - a timed message runs alone, so its span's dispatch and apply are
//     its own. A timed STATS flushes first, its reply following the
//     earlier ones; a timed DATA writes no reply and commutes with
//     everything waiting, so it does not, but it has the waiting IDs'
//     ownership checked first: an unowned ID read before it voids it.
func (g *Gateway) handleOne(w io.Writer, cs *connState) error {
	typ, err := g.readType(cs)
	if err != nil {
		return err
	}
	cs.counts[msgIndex(typ)]++
	timed := g.spanDecide(cs)
	listed := typ == typeData || typ == typeStats
	if listed && !timed {
		return g.list(w, cs, typ, false)
	}
	if typ == typeData {
		err = g.check(cs)
	} else {
		err = g.flush(w, cs, true)
	}
	if err != nil {
		return err
	}
	g.spanBegin(cs, typ)
	if listed {
		err = g.list(w, cs, typ, true)
	} else {
		err = g.applyMessage(w, cs, typ)
	}
	g.spanEnd(cs, err)
	return err
}

// readType reads the type byte of the unit's next message, unwrapping a
// TRACE envelope in front of it. An envelope is not a message: it is
// counted, its trace ID is left pending for the message, and that
// message must follow at once — another envelope, or a BATCH frame, is a
// protocol violation, as is a BATCH frame inside a frame.
func (g *Gateway) readType(cs *connState) (byte, error) {
	b, err := cs.in.take(1)
	if err != nil {
		return 0, err
	}
	typ := b[0]
	if typ == typeTrace {
		if b, err = cs.in.take(8); err != nil {
			return 0, err
		}
		cs.counts[typeTrace]++
		cs.pending = pendingTrace{id: binary.BigEndian.Uint64(b), set: true}
		if b, err = cs.in.take(1); err != nil {
			return 0, err
		}
		switch typ = b[0]; typ {
		case typeTrace:
			return 0, fmt.Errorf("%w: nested TRACE envelope", errProtocol)
		case typeBatch:
			return 0, fmt.Errorf("%w: TRACE envelope wrapping a BATCH frame", errProtocol)
		}
	}
	if typ == typeBatch {
		return 0, fmt.Errorf("%w: nested BATCH frame", errProtocol)
	}
	return typ, nil
}

// list reads one DATA or STATS where it lies and validates what needs
// no memory read: a DATA's bits may not be negative, and the session's
// index must name a slot, since shardOf picks the shard by it. An
// untimed one then waits in its shard's list, its ownership checked with
// the others' before any of them applies (check); a timed one must be
// one this connection owns, and is a list of its own, applied at once.
func (g *Gateway) list(w io.Writer, cs *connState, typ byte, timed bool) error {
	o := op{at: -1}
	if typ == typeData {
		b, err := cs.in.take(12)
		if err != nil {
			return err
		}
		o.id, o.bits = binary.BigEndian.Uint32(b), int64(binary.BigEndian.Uint64(b[4:]))
	} else {
		b, err := cs.in.take(4)
		if err != nil {
			return err
		}
		o.id, o.at = binary.BigEndian.Uint32(b), int32(len(cs.replies))
	}
	g.spanMark(cs, stageRead)
	if o.bits < 0 || uint(o.id)&uint(g.indexMask) >= uint(len(g.owners)) || timed && !g.owns(cs.serial, o.id) {
		return refused(cs, o)
	}
	sh := g.shardOf(int(o.id))
	cs.span.sess = int(o.id)
	if o.at >= 0 {
		cs.replies = append(cs.replies, statsReply{})
	}
	if !timed {
		cs.lists[sh.idx] = append(cs.lists[sh.idx], o)
		cs.ids = append(cs.ids, o.id)
		if o.at < 0 {
			cs.data++
		}
		return nil
	}
	alone := [1]op{o}
	policed, _ := sh.apply(alone[:], cs.replies, cs)
	g.m.policedBits.Add(cs.mstripe, policed)
	g.spanMark(cs, stageApply)
	if o.at < 0 {
		return nil
	}
	err := g.answer(w, cs)
	g.spanMark(cs, stageWrite)
	return err
}

// refused is the protocol error of a DATA or STATS the connection may
// not send.
func refused(cs *connState, o op) error {
	typ := byte(typeData)
	if o.at >= 0 {
		typ = typeStats
	}
	return fmt.Errorf("%w: %s session=%d bits=%d (owns %d sessions)", errProtocol, typeName(typ), o.id, o.bits, cs.sessions)
}

// check is the ownership check of the waiting DATA and STATS, run before
// anything after them applies: one pass over their IDs, an owns test of
// each one's owner word. On a large table each word is a cache miss of
// its own; no load depends on another, so in one tight pass their misses
// overlap, where a check beside each message's parse took them one after
// another. No owner word the connection could pass changes in between:
// only its own OPEN and CLOSE write one, and they flush first. At the
// first ID that fails, its op and every later one leave the lists, their
// replies with them, and its error is returned: what came before it
// still applies, as it would have alone.
func (g *Gateway) check(cs *connState) error {
	ids := cs.ids
	cs.ids = ids[:0]
	bad := len(ids)
	for j, id := range ids {
		if !g.owns(cs.serial, id) {
			bad = j
			break
		}
	}
	if bad == len(ids) {
		return nil
	}
	// Walked from the end, each voided op is the last in its shard's list.
	var o op
	for j := len(ids) - 1; j >= bad; j-- {
		si := g.shardOf(int(ids[j])).idx
		l := cs.lists[si]
		o, cs.lists[si] = l[len(l)-1], l[:len(l)-1]
		if o.at < 0 {
			cs.data--
		} else {
			cs.replies = cs.replies[:o.at]
		}
	}
	return refused(cs, o)
}

// flush checks the waiting lists (check) and applies what passes, one
// lock acquisition per shard with a list (shard.apply), then writes the
// STATS replies in stream order. It returns check's error if there is
// one, else the write's.
// With metrics attached and observe set, each list that holds DATA lands
// once in the apply-stage histogram: its messages share the lock round,
// so they share its sample, and one clock read per list (a list ends
// where the next one starts), not per message, keeps the lock wait of the
// untimed majority visible. A lone message's unit does not observe, so
// an untimed lone message reads no clock.
func (g *Gateway) flush(w io.Writer, cs *connState, observe bool) error {
	if cs.data == 0 && len(cs.replies) == 0 {
		return nil
	}
	err := g.check(cs)
	observe = observe && cs.data > 0 && g.m.exchange != nil
	var last time.Time
	if observe {
		last = time.Now()
	}
	var policed bw.Bits
	for si, l := range cs.lists {
		if len(l) == 0 {
			continue
		}
		p, data := g.shards[si].apply(l, cs.replies, nil)
		policed += p
		if observe {
			now := time.Now()
			if data {
				g.m.stages[stageApply].Observe(cs.mstripe, int64(now.Sub(last)))
			}
			last = now
		}
		cs.lists[si] = l[:0]
	}
	cs.data = 0
	g.m.policedBits.Add(cs.mstripe, policed)
	if werr := g.answer(w, cs); err == nil {
		err = werr
	}
	return err
}

// answer writes the STATS replies in stream order and empties them.
func (g *Gateway) answer(w io.Writer, cs *connState) error {
	replies := cs.replies
	cs.replies = replies[:0]
	for _, st := range replies {
		if _, err := w.Write(st.put(&cs.scratch)); err != nil {
			return err
		}
	}
	return nil
}

// applyMessage runs an OPEN, a CLOSE or an unknown type whose type byte
// has been read, on its own, marking the wire-path stages on cs's span
// clock as it goes (no-ops unless the message is timed).
func (g *Gateway) applyMessage(w io.Writer, cs *connState, typ byte) error {
	switch typ {
	case typeOpen:
		id, err := g.openSession(cs.stripe, cs.serial)
		g.spanMark(cs, stageApply)
		if err != nil {
			// Slot exhaustion is an expected steady-state condition under
			// load, not a protocol violation: tell the client and keep the
			// connection so it can retry after backoff.
			g.m.openFails.Inc(0)
			g.emitAt(cs.stripe, obs.Event{Type: obs.EventOpenFail, Session: -1})
			cs.scratch[0] = typeOpenFail
			if _, werr := w.Write(cs.scratch[:1]); werr != nil {
				return werr
			}
			g.spanMark(cs, stageWrite)
			return nil
		}
		if i := id & g.indexMask; cs.sessions == 0 {
			cs.lo, cs.hi = i, i
		} else {
			cs.lo, cs.hi = min(cs.lo, i), max(cs.hi, i)
		}
		cs.sessions++
		cs.span.sess = id
		g.emitAt(g.shardOf(id).idx, obs.Event{Type: obs.EventSessionOpen, Session: id})
		cs.scratch[0] = typeOpened
		binary.BigEndian.PutUint32(cs.scratch[1:5], uint32(id))
		if _, err := w.Write(cs.scratch[:5]); err != nil {
			return err
		}
		g.spanMark(cs, stageWrite)
	case typeClose:
		b, err := cs.in.take(4)
		if err != nil {
			return err
		}
		g.spanMark(cs, stageRead)
		id := int(binary.BigEndian.Uint32(b))
		if !g.owns(cs.serial, uint32(id)) {
			return fmt.Errorf("%w: CLOSE session=%d (owns %d sessions)", errProtocol, id, cs.sessions)
		}
		cs.span.sess = id
		// Release before replying: a client that has read CLOSED may dial
		// or OPEN again immediately and must find the slot free.
		g.releaseSession(id)
		cs.sessions--
		g.emitAt(g.shardOf(id).idx, obs.Event{Type: obs.EventSessionClose, Session: id})
		g.spanMark(cs, stageApply)
		cs.scratch[0] = typeClosed
		if _, err := w.Write(cs.scratch[:1]); err != nil {
			return err
		}
		g.spanMark(cs, stageWrite)
	default:
		return fmt.Errorf("%w: unknown message type %d", errProtocol, typ)
	}
	return nil
}

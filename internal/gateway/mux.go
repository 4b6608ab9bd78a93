package gateway

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dynbw/internal/bw"
)

// Mux is the gateway's client: any number of sessions over one TCP
// connection, and the one place the wire format is encoded client-side.
// Hundreds of sessions on a single descriptor is what lets a 100k-session
// soak fit inside an ordinary fd limit, and one session is a Mux with one
// Open. It is safe for concurrent use: a mutex serializes every
// request/reply exchange on the shared connection, so goroutines driving
// different sessions can share one Mux. Replies are read through
// one buffered reader, so a StatsBatch pays a read or two for the whole
// batch's replies. A failed exchange ends the Mux's useful life: every
// later call returns that failure (Close still closes).
//
// Every call that names a session first checks that the Mux holds it.
// The sessions it holds are a set of 64-bit words keyed by ID>>6, a bit
// per ID. An ID is a slot index under a tag, so sessions on nearby slots
// share a word: 50 000 sessions on a 100 000-slot table fill about 1 600
// words, few enough to stay in cache where a map entry per session
// missed on a random one. A word whose last session closes leaves the
// map, so the set stays bounded by the sessions held.
//
// Replies carry no request ID: they are matched to requests by stream
// order alone. So once an exchange fails after its request may have been
// written — a timeout, a short read, a reply of the wrong type — a reply
// still in flight would be taken for the answer to the next request.
// The first such failure therefore poisons the connection: every later
// exchange fails with it, and only closing remains.
type Mux struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration // bounds each exchange when positive
	// rd reads every reply, sized to what the gateway writes in one go,
	// so replies it wrote together cost one read; guarded by mu.
	rd     *bufio.Reader
	reply  [statsReplyLen]byte // guarded by mu; the reply being read
	broken error               // guarded by mu; the first failed exchange, sticky
	open   map[uint32]uint64   // guarded by mu; the sessions held: bit id&63 of the word keyed id>>6
	closed bool                // guarded by mu

	traceEvery uint64   // guarded by mu; 0 disables client-side tracing
	exchanges  uint64   // guarded by mu; requests sent since TraceEvery was set
	nextTrace  uint64   // guarded by mu; client-minted trace IDs
	scratch    [22]byte // guarded by mu; envelope+request assembly buffer
	batch      []byte   // guarded by mu; BATCH frame assembly buffer, reused
}

// BatchItem is one DATA submission inside a Mux.SendBatch call.
type BatchItem struct {
	Session uint32
	Bits    bw.Bits
}

// SessionStats is one session's accounting, as a STATS reply carries it.
type SessionStats struct {
	Served   bw.Bits
	Queued   bw.Bits
	MaxDelay bw.Tick
	// Changes counts this session's bandwidth renegotiations so far —
	// the paper's cost measure, observable live.
	Changes int64
}

// DialMux connects to a gateway without opening any session. The
// timeout bounds the dial and, when positive, every subsequent
// request/reply exchange.
func DialMux(addr string, timeout time.Duration) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial: %w", err)
	}
	return newMux(conn, timeout), nil
}

// newMux wraps an established connection.
func newMux(conn net.Conn, timeout time.Duration) *Mux {
	return &Mux{
		conn:    conn,
		timeout: timeout,
		rd:      bufio.NewReaderSize(conn, connWriteBufSize),
		open:    make(map[uint32]uint64),
	}
}

// holds reports whether the mux holds the session. Callers hold m.mu.
func (m *Mux) holds(id uint32) bool { return m.open[id>>6]&(1<<(id&63)) != 0 }

// hold adds a session the gateway has just opened for the mux. Callers
// hold m.mu.
func (m *Mux) hold(id uint32) { m.open[id>>6] |= 1 << (id & 63) }

// drop removes a held session, and its word once it holds no other.
// Callers hold m.mu.
func (m *Mux) drop(id uint32) {
	if w := m.open[id>>6] &^ (1 << (id & 63)); w != 0 {
		m.open[id>>6] = w
	} else {
		delete(m.open, id>>6)
	}
}

// TraceEvery asks the gateway to trace every n-th request sent through
// this mux: the request is prefixed with a TRACE envelope carrying a
// client-minted trace ID (top bit set, distinguishing it from the
// gateway's own sampled IDs), and the gateway records a full wire-path
// span for it regardless of its local sampling rate. n <= 0 disables.
func (m *Mux) TraceEvery(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		m.traceEvery = 0
		return
	}
	m.traceEvery = uint64(n)
	m.exchanges = 0
}

// appendTrace counts one request and, on every traceEvery-th, appends
// its TRACE envelope to buf. Callers hold m.mu.
func (m *Mux) appendTrace(buf []byte) []byte {
	if m.traceEvery > 0 {
		if m.exchanges++; m.exchanges%m.traceEvery == 0 {
			m.nextTrace++
			buf = append(buf, typeTrace)
			buf = binary.BigEndian.AppendUint64(buf, 1<<63|m.nextTrace)
		}
	}
	return buf
}

// writeMsg sends one request, behind its TRACE envelope when one is due
// — assembled into the scratch buffer so envelope and request leave in a
// single Write. Callers hold m.mu.
func (m *Mux) writeMsg(op string, msg []byte) error {
	if env := m.appendTrace(m.scratch[:0]); len(env) > 0 {
		msg = append(env, msg...)
	}
	return m.write(op, msg)
}

// Open performs an OPEN/OPENED exchange and returns the new session ID.
// ErrSessionLimit means every slot is taken; the Mux stays usable.
func (m *Mux) Open() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("gateway: open on closed mux")
	}
	if err := m.begin(); err != nil {
		return 0, err
	}
	defer m.end()
	if err := m.writeMsg("open", []byte{typeOpen}); err != nil {
		return 0, err
	}
	id, err := m.readOpened()
	if err != nil {
		return 0, err
	}
	m.hold(id)
	return id, nil
}

// Send submits bits to one of the mux's sessions (no reply).
func (m *Mux) Send(session uint32, bits bw.Bits) error {
	if bits < 0 {
		return fmt.Errorf("gateway: negative send %d", bits)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.holds(session) {
		return fmt.Errorf("gateway: send on unowned session %d", session)
	}
	var msg [13]byte
	msg[0] = typeData
	binary.BigEndian.PutUint32(msg[1:], session)
	binary.BigEndian.PutUint64(msg[5:], uint64(bits))
	if err := m.begin(); err != nil {
		return err
	}
	defer m.end()
	return m.writeMsg("send", msg[:])
}

// SendBatch submits DATA to many of the mux's sessions as BATCH frames
// — one conn write per up-to-MaxBatch items instead of one per item, so
// a fleet keeping thousands of sessions warm pays a small fraction of
// the per-message syscall cost. Items are validated up front; the
// assembly buffer is retained across calls. When TraceEvery is armed,
// each item counts as a request and due items carry their TRACE
// envelope inside the batch.
func (m *Mux) SendBatch(items []BatchItem) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, it := range items {
		if it.Bits < 0 {
			return fmt.Errorf("gateway: negative send %d", it.Bits)
		}
		if !m.holds(it.Session) {
			return fmt.Errorf("gateway: send on unowned session %d", it.Session)
		}
	}
	if err := m.begin(); err != nil {
		return err
	}
	defer m.end()
	for len(items) > 0 {
		n := len(items)
		if n > MaxBatch {
			n = MaxBatch
		}
		buf := m.batch[:0]
		buf = append(buf, typeBatch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
		for _, it := range items[:n] {
			buf = m.appendTrace(buf)
			buf = append(buf, typeData)
			buf = binary.BigEndian.AppendUint32(buf, it.Session)
			buf = binary.BigEndian.AppendUint64(buf, uint64(it.Bits))
		}
		m.batch = buf // keep the grown capacity for the next call
		if err := m.write("send batch", buf); err != nil {
			return err
		}
		items = items[n:]
	}
	return nil
}

// StatsBatch fetches several sessions' accounting in one pipelined
// round trip per up-to-MaxBatch sessions: one BATCH frame of STATS
// requests goes out in a single write, the gateway coalesces the
// replies, and they are read back in request order through the mux's
// buffered reader — a read or two per frame, not one per reply. The
// result is indexed like sessions.
func (m *Mux) StatsBatch(sessions []uint32) ([]SessionStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range sessions {
		if !m.holds(s) {
			return nil, fmt.Errorf("gateway: stats on unowned session %d", s)
		}
	}
	if err := m.begin(); err != nil {
		return nil, err
	}
	defer m.end()
	out := make([]SessionStats, 0, len(sessions))
	for len(sessions) > 0 {
		n := len(sessions)
		if n > MaxBatch {
			n = MaxBatch
		}
		buf := m.batch[:0]
		buf = append(buf, typeBatch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
		for _, s := range sessions[:n] {
			buf = append(buf, typeStats)
			buf = binary.BigEndian.AppendUint32(buf, s)
		}
		m.batch = buf
		if err := m.write("stats batch", buf); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			st, err := m.readStats()
			if err != nil {
				return nil, fmt.Errorf("gateway: stats batch, reply %d: %w", i, err)
			}
			out = append(out, st)
		}
		sessions = sessions[n:]
	}
	return out, nil
}

// Stats fetches one session's accounting from the gateway.
func (m *Mux) Stats(session uint32) (SessionStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.holds(session) {
		return SessionStats{}, fmt.Errorf("gateway: stats on unowned session %d", session)
	}
	var req [5]byte
	req[0] = typeStats
	binary.BigEndian.PutUint32(req[1:], session)
	if err := m.begin(); err != nil {
		return SessionStats{}, err
	}
	defer m.end()
	if err := m.writeMsg("stats", req[:]); err != nil {
		return SessionStats{}, err
	}
	return m.readStats()
}

// CloseSession returns one session's slot to the gateway with an
// explicit CLOSE/CLOSED exchange; the slot is guaranteed free when it
// returns nil. Closing a session the mux no longer holds is a no-op.
func (m *Mux) CloseSession(session uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.holds(session) {
		return nil
	}
	var req [5]byte
	req[0] = typeClose
	binary.BigEndian.PutUint32(req[1:], session)
	if err := m.begin(); err != nil {
		return err
	}
	defer m.end()
	if err := m.writeMsg("close", req[:]); err != nil {
		return err
	}
	if err := m.readClosed(); err != nil {
		return err
	}
	m.drop(session)
	return nil
}

// Close tears down the connection. Sessions still open are released by
// the gateway's handler when it observes the disconnect, so an explicit
// per-session CLOSE sweep is not required for slot recycling — only for
// the stronger "free before Close returns" guarantee of CloseSession.
func (m *Mux) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return m.conn.Close()
}

// begin opens one exchange: it reports the failure that poisoned the
// connection, if any, and otherwise arms the deadline bounding the
// exchange. Every begin that returns nil is paired with an end.
// Callers hold m.mu.
func (m *Mux) begin() error {
	if m.broken != nil {
		return fmt.Errorf("gateway: connection unusable after a failed exchange: %w", m.broken)
	}
	if m.timeout > 0 {
		m.conn.SetDeadline(time.Now().Add(m.timeout))
	}
	return nil
}

// end clears the exchange deadline. Callers hold m.mu.
func (m *Mux) end() {
	if m.timeout > 0 {
		m.conn.SetDeadline(time.Time{})
	}
}

// fail poisons the connection with err (the first failure wins) and
// returns err. Callers hold m.mu.
func (m *Mux) fail(err error) error {
	if m.broken == nil {
		m.broken = err
	}
	return err
}

// write sends one request or frame in a single conn write.
// Callers hold m.mu.
func (m *Mux) write(op string, b []byte) error {
	if _, err := m.conn.Write(b); err != nil {
		return m.fail(fmt.Errorf("gateway: %s: %w", op, err))
	}
	return nil
}

// read fills m.reply[:n] with the next n reply bytes.
// Callers hold m.mu.
func (m *Mux) read(op string, n int) error {
	if _, err := io.ReadFull(m.rd, m.reply[:n]); err != nil {
		return m.fail(fmt.Errorf("gateway: %s reply: %w", op, err))
	}
	return nil
}

// readOpened reads the reply to an OPEN: the new session ID, or
// ErrSessionLimit on OPENFAIL (a valid reply — the connection stays
// usable). Callers hold m.mu.
func (m *Mux) readOpened() (uint32, error) {
	if err := m.read("open", 1); err != nil {
		return 0, err
	}
	switch typ := m.reply[0]; typ {
	case typeOpened:
		if err := m.read("open", 4); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(m.reply[:4]), nil
	case typeOpenFail:
		return 0, ErrSessionLimit
	default:
		return 0, m.fail(fmt.Errorf("gateway: unexpected open reply type %d", typ))
	}
}

// readStats reads one STATSR reply. Callers hold m.mu.
func (m *Mux) readStats() (SessionStats, error) {
	if err := m.read("stats", statsReplyLen); err != nil {
		return SessionStats{}, err
	}
	if m.reply[0] != typeStatsR {
		return SessionStats{}, m.fail(fmt.Errorf("gateway: unexpected stats reply type %d", m.reply[0]))
	}
	return SessionStats{
		Served:   bw.Bits(binary.BigEndian.Uint64(m.reply[1:])),
		Queued:   bw.Bits(binary.BigEndian.Uint64(m.reply[9:])),
		MaxDelay: bw.Tick(binary.BigEndian.Uint64(m.reply[17:])),
		Changes:  int64(binary.BigEndian.Uint64(m.reply[25:])),
	}, nil
}

// readClosed reads the reply to a CLOSE. Callers hold m.mu.
func (m *Mux) readClosed() error {
	if err := m.read("close", 1); err != nil {
		return err
	}
	if m.reply[0] != typeClosed {
		return m.fail(fmt.Errorf("gateway: unexpected close reply type %d", m.reply[0]))
	}
	return nil
}

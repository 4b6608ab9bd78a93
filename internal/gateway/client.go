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

// Reply-buffer sizes of the two client types. A Mux reads a batch's
// coalesced replies, so its buffer matches what the gateway writes in one
// go (connWriteBufSize); a Client only ever awaits one reply, and a swarm
// holds one Client per session, so its buffer is just past the largest
// reply.
const (
	muxReadBufSize    = connWriteBufSize
	clientReadBufSize = 64
)

// clientConn is the client side of one gateway connection, shared by
// Client and Mux: the socket, the one buffered reader every reply is read
// through (so replies the gateway wrote together cost one read, not one
// each), the exchange deadline, and the failure that ended the
// connection's useful life. Callers serialize access (Client.mu, Mux.mu).
//
// Replies carry no request ID: they are matched to requests by stream
// order alone. So once an exchange fails after its request may have been
// written — a timeout, a short read, a reply of the wrong type — a reply
// still in flight would be taken for the answer to the next request.
// The first such failure therefore poisons the connection: every later
// exchange fails with it, and only closing remains.
type clientConn struct {
	conn    net.Conn
	rd      *bufio.Reader
	timeout time.Duration
	broken  error // first failed exchange; sticky
	reply   [statsReplyLen]byte
}

func newClientConn(conn net.Conn, timeout time.Duration, readBuf int) clientConn {
	return clientConn{conn: conn, rd: bufio.NewReaderSize(conn, readBuf), timeout: timeout}
}

// begin opens one exchange: it reports the failure that poisoned the
// connection, if any, and otherwise arms the deadline bounding the
// exchange. Every begin that returns nil is paired with an end.
func (c *clientConn) begin() error {
	if c.broken != nil {
		return fmt.Errorf("gateway: connection unusable after a failed exchange: %w", c.broken)
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	return nil
}

// end clears the exchange deadline.
func (c *clientConn) end() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// fail poisons the connection with err (the first failure wins) and
// returns err.
func (c *clientConn) fail(err error) error {
	if c.broken == nil {
		c.broken = err
	}
	return err
}

// write sends one request or frame in a single conn write.
func (c *clientConn) write(op string, b []byte) error {
	if _, err := c.conn.Write(b); err != nil {
		return c.fail(fmt.Errorf("gateway: %s: %w", op, err))
	}
	return nil
}

// read fills c.reply[:n] with the next n reply bytes.
func (c *clientConn) read(op string, n int) error {
	if _, err := io.ReadFull(c.rd, c.reply[:n]); err != nil {
		return c.fail(fmt.Errorf("gateway: %s reply: %w", op, err))
	}
	return nil
}

// readOpened reads the reply to an OPEN: the new session ID, or
// ErrSessionLimit on OPENFAIL (a valid reply — the connection stays
// usable).
func (c *clientConn) readOpened() (uint32, error) {
	if err := c.read("open", 1); err != nil {
		return 0, err
	}
	switch typ := c.reply[0]; typ {
	case typeOpened:
		if err := c.read("open", 4); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(c.reply[:4]), nil
	case typeOpenFail:
		return 0, ErrSessionLimit
	default:
		return 0, c.fail(fmt.Errorf("gateway: unexpected open reply type %d", typ))
	}
}

// readStats reads one STATSR reply.
func (c *clientConn) readStats() (SessionStats, error) {
	if err := c.read("stats", statsReplyLen); err != nil {
		return SessionStats{}, err
	}
	if c.reply[0] != typeStatsR {
		return SessionStats{}, c.fail(fmt.Errorf("gateway: unexpected stats reply type %d", c.reply[0]))
	}
	return SessionStats{
		Served:   bw.Bits(binary.BigEndian.Uint64(c.reply[1:])),
		Queued:   bw.Bits(binary.BigEndian.Uint64(c.reply[9:])),
		MaxDelay: bw.Tick(binary.BigEndian.Uint64(c.reply[17:])),
		Changes:  int64(binary.BigEndian.Uint64(c.reply[25:])),
	}, nil
}

// readClosed reads the reply to a CLOSE.
func (c *clientConn) readClosed() error {
	if err := c.read("close", 1); err != nil {
		return err
	}
	if c.reply[0] != typeClosed {
		return c.fail(fmt.Errorf("gateway: unexpected close reply type %d", c.reply[0]))
	}
	return nil
}

// Client is one session's view of the gateway. It is safe for concurrent
// use: a mutex serializes every request/reply exchange on the shared
// connection, so a sender goroutine and a stats-polling goroutine can
// share one Client (the pattern internal/load relies on). A failed
// exchange ends the Client's useful life: every later call returns that
// failure (Close still closes).
type Client struct {
	mu       sync.Mutex
	cc       clientConn // guarded by mu
	session  uint32
	released bool   // guarded by mu
	batch    []byte // guarded by mu; BATCH frame assembly buffer, reused
}

// SessionStats is the per-session accounting returned by Client.Stats.
type SessionStats struct {
	Served   bw.Bits
	Queued   bw.Bits
	MaxDelay bw.Tick
	// Changes counts this session's bandwidth renegotiations so far —
	// the paper's cost measure, observable live.
	Changes int64
}

// DialSession connects to a gateway and opens a session slot. The timeout
// bounds the dial and, when positive, every subsequent request/reply
// exchange on the client (so a dead gateway cannot hang callers forever).
func DialSession(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial: %w", err)
	}
	c := &Client{cc: newClientConn(conn, timeout, clientReadBufSize)}
	c.cc.begin() // fresh connection: only arms the deadline
	defer c.cc.end()
	err = c.cc.write("open", []byte{typeOpen})
	if err == nil {
		c.session, err = c.cc.readOpened()
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Session returns the assigned session slot.
func (c *Client) Session() uint32 { return c.session }

// Send submits bits to the session's queue.
func (c *Client) Send(bits bw.Bits) error {
	if bits < 0 {
		return fmt.Errorf("gateway: negative send %d", bits)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return fmt.Errorf("gateway: send on released session %d", c.session)
	}
	var msg [13]byte
	msg[0] = typeData
	binary.BigEndian.PutUint32(msg[1:], c.session)
	binary.BigEndian.PutUint64(msg[5:], uint64(bits))
	if err := c.cc.begin(); err != nil {
		return err
	}
	defer c.cc.end()
	return c.cc.write("send", msg[:])
}

// SendN submits a sequence of payloads to the session's queue as BATCH
// frames of DATA messages — one conn write (and one gateway syscall
// round) per up-to-MaxBatch payloads instead of one per payload. The
// assembly buffer is retained across calls, so a steady sender
// allocates nothing after the first batch.
func (c *Client) SendN(bits []bw.Bits) error {
	for _, b := range bits {
		if b < 0 {
			return fmt.Errorf("gateway: negative send %d", b)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return fmt.Errorf("gateway: send on released session %d", c.session)
	}
	if err := c.cc.begin(); err != nil {
		return err
	}
	defer c.cc.end()
	for len(bits) > 0 {
		n := len(bits)
		if n > MaxBatch {
			n = MaxBatch
		}
		buf := c.batch[:0]
		buf = append(buf, typeBatch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
		for _, b := range bits[:n] {
			buf = append(buf, typeData)
			buf = binary.BigEndian.AppendUint32(buf, c.session)
			buf = binary.BigEndian.AppendUint64(buf, uint64(b))
		}
		c.batch = buf // keep the grown capacity for the next call
		if err := c.cc.write("send batch", buf); err != nil {
			return err
		}
		bits = bits[n:]
	}
	return nil
}

// Stats fetches the session's accounting from the gateway. The exchange
// is bounded by the dial timeout, so a wedged gateway yields an error
// instead of a hang.
func (c *Client) Stats() (SessionStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return SessionStats{}, fmt.Errorf("gateway: stats on released session %d", c.session)
	}
	var req [5]byte
	req[0] = typeStats
	binary.BigEndian.PutUint32(req[1:], c.session)
	if err := c.cc.begin(); err != nil {
		return SessionStats{}, err
	}
	defer c.cc.end()
	if err := c.cc.write("stats", req[:]); err != nil {
		return SessionStats{}, err
	}
	return c.cc.readStats()
}

// Release returns the session slot to the gateway with an explicit
// CLOSE/CLOSED exchange. After Release returns nil the slot is guaranteed
// free on the gateway side — the property that lets thousands of
// short-lived sessions recycle a small slot pool. Release is idempotent.
func (c *Client) Release() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return nil
	}
	var req [5]byte
	req[0] = typeClose
	binary.BigEndian.PutUint32(req[1:], c.session)
	if err := c.cc.begin(); err != nil {
		return err
	}
	defer c.cc.end()
	if err := c.cc.write("close", req[:]); err != nil {
		return err
	}
	if err := c.cc.readClosed(); err != nil {
		return err
	}
	c.released = true
	return nil
}

// Close releases the session slot (best effort — a dead gateway only
// costs the read deadline, a poisoned connection nothing) and closes the
// connection.
func (c *Client) Close() error {
	c.Release() // ignore error: the conn teardown frees the slot anyway
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cc.conn.Close()
}

package gateway

import (
	"time"

	"dynbw/internal/bw"
)

// Client is one session's view of the gateway: a session ID and the Mux
// that opened it, on a connection of its own. It is safe for concurrent
// use the way the Mux is, so a sender goroutine and a stats-polling
// goroutine can share one Client (the pattern internal/load relies on),
// and a failed exchange ends its useful life as it ends the Mux's.
type Client struct {
	m       *Mux
	session uint32
}

// SessionStats is the per-session accounting returned by Stats.
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
	m, err := DialMux(addr, timeout)
	if err != nil {
		return nil, err
	}
	id, err := m.Open()
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Client{m: m, session: id}, nil
}

// Session returns the assigned session ID.
func (c *Client) Session() uint32 { return c.session }

// Send submits bits to the session's queue.
func (c *Client) Send(bits bw.Bits) error { return c.m.Send(c.session, bits) }

// Stats fetches the session's accounting from the gateway.
func (c *Client) Stats() (SessionStats, error) { return c.m.Stats(c.session) }

// Release returns the session slot to the gateway with an explicit
// CLOSE/CLOSED exchange. After Release returns nil the slot is guaranteed
// free on the gateway side — the property that lets thousands of
// short-lived sessions recycle a small slot pool. Release is idempotent;
// Send and Stats fail after it.
func (c *Client) Release() error { return c.m.CloseSession(c.session) }

// Close releases the session slot (best effort — a dead gateway only
// costs the read deadline, a poisoned connection nothing) and closes the
// connection.
func (c *Client) Close() error {
	c.Release() // ignore error: the conn teardown frees the slot anyway
	return c.m.Close()
}

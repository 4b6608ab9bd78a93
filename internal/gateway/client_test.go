package gateway

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// countingConn counts the Read and Write calls a client makes on its
// socket. Only the test goroutine drives the client, so plain ints do.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestMuxSocketCallsPerExchange: a batched exchange costs what its bytes
// cost. The gateway coalesces a BATCH frame's replies into one write, so
// the mux must take them off the socket in a read or two rather than one
// per reply, an OPEN reply (type byte + session) in one, and every BATCH
// frame must leave in a single write.
func TestMuxSocketCallsPerExchange(t *testing.T) {
	const n = 64
	g, _ := startGateway(t, n)
	defer g.Close()
	conn, err := net.DialTimeout("tcp", g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	m := newMux(cc, time.Second)
	defer m.Close()
	// calls runs one mux operation and returns the socket calls it made.
	calls := func(op func() error) (reads, writes int) {
		t.Helper()
		r0, w0 := cc.reads, cc.writes
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return cc.reads - r0, cc.writes - w0
	}

	ids := make([]uint32, n)
	items := make([]BatchItem, n)
	for i := range ids {
		reads, writes := calls(func() (err error) { ids[i], err = m.Open(); return })
		if reads > 2 || writes != 1 {
			t.Fatalf("Open %d: %d reads, %d writes; want <= 2 reads, 1 write", i, reads, writes)
		}
		items[i] = BatchItem{Session: ids[i], Bits: 8}
	}
	if reads, writes := calls(func() error { return m.SendBatch(items) }); reads != 0 || writes != 1 {
		t.Errorf("SendBatch(%d): %d reads, %d writes; want 0 reads, 1 write", n, reads, writes)
	}
	if reads, writes := calls(func() error { _, err := m.StatsBatch(ids); return err }); reads > 3 || writes != 1 {
		t.Errorf("StatsBatch(%d): %d reads, %d writes; want <= 3 reads, 1 write", n, reads, writes)
	}
	// Past MaxBatch items the input is split: one write per frame.
	long := make([]BatchItem, MaxBatch+1)
	for i := range long {
		long[i] = BatchItem{Session: ids[i%n], Bits: 1}
	}
	if reads, writes := calls(func() error { return m.SendBatch(long) }); reads != 0 || writes != 2 {
		t.Errorf("SendBatch(%d): %d reads, %d writes; want 0 reads, 2 writes (two frames)", len(long), reads, writes)
	}
}

// TestFailedExchangePoisonsMux: replies are matched to requests by stream
// order, so after an exchange times out its late reply must not be handed
// to the next call as another session's accounting. The stub gateway
// holds the first STATS reply back until the client has given up on it,
// then sends it.
func TestFailedExchangePoisonsMux(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gaveUp := make(chan struct{})   // closed once the first Stats has timed out
	lateSent := make(chan error, 1) // the stub's write of the late reply
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			lateSent <- err
			return
		}
		defer conn.Close()
		reply := func(reqLen int, msg ...byte) error {
			if _, err := io.ReadFull(conn, make([]byte, reqLen)); err != nil {
				return err
			}
			_, err := conn.Write(msg)
			return err
		}
		stats := func(served byte) []byte {
			msg := make([]byte, statsReplyLen)
			msg[0], msg[8] = typeStatsR, served // served is the low byte of the first field
			return msg
		}
		err = reply(1, typeOpened, 0, 0, 0, 0) // session 0
		if err == nil {
			err = reply(1, typeOpened, 0, 0, 0, 1) // session 1
		}
		if err == nil {
			<-gaveUp
			err = reply(5, stats(111)...) // session 0's accounting, too late
		}
		lateSent <- err
		reply(5, stats(222)...) // a second request, if one ever comes
	}()

	m, err := DialMux(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() // releases the stub if the test bails out early
	a, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, first := m.Stats(a)
	if !errors.Is(first, os.ErrDeadlineExceeded) {
		t.Fatalf("Stats against a stalled gateway: %v, want a deadline error", first)
	}
	close(gaveUp)
	if err := <-lateSent; err != nil {
		t.Fatalf("stub gateway: %v", err)
	}
	// Session a's reply is now sitting in the socket.
	if st, err := m.Stats(b); err == nil {
		t.Fatalf("Stats(b) after a failed exchange returned %+v; want the connection's first failure", st)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Stats(b) = %v, want it to wrap the first failure (%v)", err, first)
	}
	if err := m.SendBatch([]BatchItem{{Session: b, Bits: 1}}); err == nil {
		t.Error("SendBatch on a poisoned mux succeeded")
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close on a poisoned mux: %v", err)
	}
}

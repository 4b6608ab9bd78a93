package gateway

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"strings"
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

// TestMuxSessionSet: the mux's set of held sessions, over IDs that span
// tags and the edges of its 64-bit words, handed out in turn by a stub
// gateway. Once a session is closed, each call that names it fails on
// the client side while the others' sessions stay usable; and a word
// leaves the set with its last session.
func TestMuxSessionSet(t *testing.T) {
	ids := []uint32{0, 63, 64, 1<<17 | 5, 1 << 31, math.MaxUint32}
	client, server := net.Pipe()
	go stubGateway(server, ids)
	m := newMux(client, 5*time.Second)
	defer m.Close()
	for i, want := range ids {
		if id, err := m.Open(); err != nil || id != want {
			t.Fatalf("Open %d: %#x, %v; want %#x", i, id, err, want)
		}
	}
	if len(m.open) != 5 {
		t.Errorf("%d words hold %d sessions, want 5 (0 and 63 share one)", len(m.open), len(ids))
	}
	unowned := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unowned session") {
			t.Errorf("%s: %v, want an unowned-session error", what, err)
		}
	}
	for i, id := range ids {
		if err := m.CloseSession(id); err != nil {
			t.Fatalf("CloseSession(%#x): %v", id, err)
		}
		live := ids[i+1:]
		unowned("Send", m.Send(id, 1))
		unowned("SendBatch", m.SendBatch([]BatchItem{{Session: id, Bits: 1}}))
		_, err := m.Stats(id)
		unowned("Stats", err)
		_, err = m.StatsBatch([]uint32{id})
		unowned("StatsBatch", err)
		if err := m.CloseSession(id); err != nil {
			t.Errorf("CloseSession(%#x) a second time: %v, want a no-op", id, err)
		}
		shared := false
		for _, l := range live {
			if err := m.Send(l, 1); err != nil {
				t.Fatalf("Send(%#x) after closing %#x: %v", l, id, err)
			}
			if _, err := m.Stats(l); err != nil {
				t.Fatalf("Stats(%#x) after closing %#x: %v", l, id, err)
			}
			shared = shared || l>>6 == id>>6
		}
		if _, ok := m.open[id>>6]; ok != shared {
			t.Errorf("after closing %#x: word %#x in the set is %v, want %v", id, id>>6, ok, shared)
		}
	}
	if len(m.open) != 0 {
		t.Errorf("%d words left with no session held", len(m.open))
	}
}

// stubGateway answers a mux on conn as a gateway would, handing its
// OPENs the given session IDs in turn and owning nothing itself: every
// STATS reads zero. It returns when conn closes.
func stubGateway(conn net.Conn, ids []uint32) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var msg func() error
	msg = func() error {
		typ, err := r.ReadByte()
		if err != nil {
			return err
		}
		var reply []byte
		switch typ {
		case typeOpen:
			reply = binary.BigEndian.AppendUint32([]byte{typeOpened}, ids[0])
			ids = ids[1:]
		case typeData:
			_, err = r.Discard(12)
		case typeStats:
			_, err = r.Discard(4)
			reply = make([]byte, statsReplyLen)
			reply[0] = typeStatsR
		case typeClose:
			_, err = r.Discard(4)
			reply = []byte{typeClosed}
		case typeBatch:
			var n [2]byte
			if _, err = io.ReadFull(r, n[:]); err != nil {
				return err
			}
			for range binary.BigEndian.Uint16(n[:]) {
				if err := msg(); err != nil {
					return err
				}
			}
		}
		if err == nil && reply != nil {
			_, err = conn.Write(reply)
		}
		return err
	}
	for msg() == nil {
	}
}

package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// newBare builds the slot state of a k-slot single-shard gateway with no
// listener and no loops, for driving handleMessage without a network. It
// is served by a stateless policy until the test serves it another.
func newBare(k int) *Gateway {
	g := newGateway(k, 1)
	g.shards[0].alloc = perSlotAlloc(k, 4)
	// Panics are contained; count them where a test can see.
	g.m.roundPanics, g.m.handlerPanics = obs.NewCounter(1), obs.NewCounter(1)
	return g
}

// ownedBy lists the sessions cs owns as the owner words record them:
// the wire ID in every slot's word that carries cs's serial, found by a
// scan of the whole table rather than the gateway's own walk.
func ownedBy(g *Gateway, cs *connState) map[uint32]struct{} {
	owned := make(map[uint32]struct{})
	for i := range g.owners {
		if w := g.owners[i].Load(); w != 0 && uint32(w>>32) == cs.serial {
			owned[uint32(w)] = struct{}{}
		}
	}
	return owned
}

// wireReader puts wire bytes behind the buffered reader handleMessage
// reads from, sized as a connection's.
func wireReader(b []byte) *bufio.Reader {
	return bufio.NewReaderSize(bytes.NewReader(b), connReadBufSize)
}

// fuzzSeed assembles a request message for the corpus: the type byte, a
// uint32 session id as first field, and uint64s for the rest.
func fuzzSeed(typ byte, fields ...uint64) []byte {
	var b bytes.Buffer
	b.WriteByte(typ)
	for i, f := range fields {
		if i == 0 {
			var s [4]byte
			binary.BigEndian.PutUint32(s[:], uint32(f))
			b.Write(s[:])
			continue
		}
		var s [8]byte
		binary.BigEndian.PutUint64(s[:], f)
		b.Write(s[:])
	}
	return b.Bytes()
}

// Harness-only bytes. Where a wire unit would start, one of these is
// taken by the fuzz harness instead of handleMessage; every other byte —
// 0xff included, which stays the corpus's unknown message type — starts a
// wire unit.
const (
	fuzzRounds byte = 0xa0 // 0xa0..0xa3: run 1..4 allocation rounds
	fuzzSwitch byte = 0xb0 // the stream continues on the other connection
	fuzzHangUp byte = 0xb1 // the current connection dies without a CLOSE
)

// fuzzSession is the reference model's whole knowledge of a live session.
type fuzzSession struct {
	conn int     // the connection that opened it
	sent bw.Bits // bits it was sent since OPEN, saturating
}

// fuzzModel is the reference the gateway is compared with after every
// step: the live sessions by wire ID, and bounds on the bits that ended
// sessions must have dropped (equal, until a session the cap policed or
// a rejected unit makes the exact figure unknowable from outside).
type fuzzModel struct {
	live               map[int]*fuzzSession
	closedLo, closedHi bw.Bits
}

// end takes a session that had been served so far out of the model and
// accounts for what its end dropped.
func (m *fuzzModel) end(id int, served bw.Bits) {
	s := m.live[id]
	if s.sent <= sim.MaxBacklog {
		m.closedLo += s.sent - served
	}
	m.closedHi += s.sent - served
	delete(m.live, id)
}

// accepted folds one wire unit the gateway took whole into the model,
// reading the gateway's replies for what only it decides (the ID an OPEN
// was given), and fails the test if the unit should not have been taken:
// it named a session the connection does not own. served holds each
// session's served count from before the unit (no round runs inside one).
func (m *fuzzModel) accepted(t *testing.T, conn int, u, reply []byte, served map[int]bw.Bits) {
	if u[0] == typeBatch {
		u = u[3:]
	}
	owned := func(what string, id int) *fuzzSession {
		s := m.live[id]
		if s == nil || s.conn != conn {
			t.Fatalf("connection %d: %s accepted for session %#x, which it does not own", conn, what, id)
		}
		return s
	}
	for len(u) > 0 {
		if u[0] == typeTrace {
			u = u[9:]
		}
		typ := u[0]
		u = u[1:]
		switch typ {
		case typeOpen:
			if reply[0] == typeOpenFail {
				reply = reply[1:]
				break
			}
			id := int(binary.BigEndian.Uint32(reply[1:]))
			reply = reply[5:]
			if m.live[id] != nil {
				t.Fatalf("OPEN handed out %#x, the ID of a live session", id)
			}
			m.live[id] = &fuzzSession{conn: conn}
		case typeData:
			s := owned("DATA", int(binary.BigEndian.Uint32(u)))
			if s.sent += bw.Bits(binary.BigEndian.Uint64(u[4:])); s.sent < 0 {
				s.sent = math.MaxInt64
			}
			u = u[12:]
		case typeStats:
			id := int(binary.BigEndian.Uint32(u))
			s := owned("STATS", id)
			got := bw.Bits(binary.BigEndian.Uint64(reply[1:]) + binary.BigEndian.Uint64(reply[9:]))
			if got < 0 || got > s.sent {
				t.Fatalf("session %#x was sent %d bits; STATS reports %d served or queued", id, s.sent, got)
			}
			u, reply = u[4:], reply[statsReplyLen:]
		case typeClose:
			id := int(binary.BigEndian.Uint32(u))
			owned("CLOSE", id)
			m.end(id, served[id])
			u, reply = u[4:], reply[1:]
		}
	}
}

// fuzzCorpus is FuzzHandleMessage's seed corpus: byte streams of wire
// units with the harness-only bytes above between them.
func fuzzCorpus() (seeds [][]byte) {
	add := func(b []byte) { seeds = append(seeds, b) }
	add(fuzzSeed(typeOpen))
	add(fuzzSeed(typeData, 0, 64))
	add(append(fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64)...))
	add(append(fuzzSeed(typeOpen), fuzzSeed(typeStats, 0)...))
	add(append(fuzzSeed(typeOpen), fuzzSeed(typeClose, 0)...))
	add(append(fuzzSeed(typeOpen), fuzzSeed(typeOpen)...))
	add(fuzzSeed(typeStats, 3))
	add(fuzzSeed(typeClose, 1<<31))
	add(fuzzSeed(typeData, 7, 1<<63))
	add(append(fuzzSeed(typeOpen), append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 64)...)...))
	add([]byte{typeTrace, 1, 2, 3, 4, 5, 6, 7, 8, typeTrace})
	add([]byte{0xff, 0x00})
	add([]byte{})
	// BATCH frames: empty, truncated count, oversized count, a clean
	// OPEN+DATA+DATA batch, a short count (extra message spills out of
	// the frame), nested BATCH, TRACE inside and wrapping a batch.
	add([]byte{typeBatch, 0, 0})
	add([]byte{typeBatch, 0})
	add([]byte{typeBatch, 0xff, 0xff})
	add(batchFrame(3, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64), fuzzSeed(typeData, 0, 8)))
	add(batchFrame(1, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64)))
	add(batchFrame(1, batchFrame(0)))
	add(batchFrame(2, fuzzSeed(typeOpen), append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 64)...)))
	add(append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, batchFrame(0)...))
	add(batchFrame(2, fuzzSeed(typeOpen), fuzzSeed(typeClose, 0)))
	// Two volumes whose sum overflows an int64, unbatched and batched:
	// the arrivals a slot holds must saturate, or the round that enqueues
	// them panics.
	huge := fuzzSeed(typeData, 0, 1<<62)
	add(append(fuzzSeed(typeOpen), append(huge, huge...)...))
	add(batchFrame(3, fuzzSeed(typeOpen), huge, huge))
	// The crasher a 10 s run found while CLOSE only cleared the occupancy
	// bit: bits still pending when their session ends stayed on the free
	// slot, for its next tenant to inherit.
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	add(join(fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 1<<40), fuzzSeed(typeClose, 0)))
	// Lifecycles: a backlog queued by a round, then CLOSE, then the next
	// tenant of the slot (ID 1<<2, tag 1 over index 0) reading its own
	// counters; the first tenant's ID used after its CLOSE; a connection
	// hanging up with bits in flight; the other connection naming a
	// session that is not its own.
	const second = 1 << 2
	add(join(fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 1000), []byte{fuzzRounds + 1}, fuzzSeed(typeClose, 0),
		fuzzSeed(typeOpen), fuzzSeed(typeData, second, 8), []byte{fuzzRounds}, fuzzSeed(typeStats, second)))
	add(join(fuzzSeed(typeOpen), fuzzSeed(typeClose, 0), fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64)))
	add(join(fuzzSeed(typeOpen), fuzzSeed(typeOpen), fuzzSeed(typeData, 1, 500), []byte{fuzzRounds, fuzzHangUp, fuzzRounds + 3}))
	add(join(fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64), []byte{fuzzSwitch}, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 8)))
	add(join(fuzzSeed(typeOpen), []byte{fuzzSwitch}, batchFrame(2, fuzzSeed(typeOpen), fuzzSeed(typeStats, 0))))
	// A frame's DATA and STATS wait in one list per shard: a timed DATA
	// overtaking the STATS listed ahead of it, and an interleaved frame
	// whose last message names a session the connection does not own.
	add(batchFrame(4, fuzzSeed(typeOpen), fuzzSeed(typeStats, 0),
		append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 64)...), fuzzSeed(typeStats, 0)))
	add(batchFrame(6, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64), fuzzSeed(typeStats, 0),
		fuzzSeed(typeData, 0, 8), fuzzSeed(typeStats, 0), fuzzSeed(typeData, 3, 8)))
	// The waiting IDs' ownership is checked in one pass, before anything
	// after them applies: an unowned ID (index 0 under tag 1) ahead of a
	// traced DATA, the other connection's session mid-frame, and an ID
	// whose index names no slot on a larger table (13; on these four
	// slots, index 1 under tag 3).
	add(join(fuzzSeed(typeOpen), batchFrame(5, fuzzSeed(typeData, 0, 8), fuzzSeed(typeStats, 0), fuzzSeed(typeData, second, 8),
		append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 5)...), fuzzSeed(typeStats, 0))))
	add(join(fuzzSeed(typeOpen), []byte{fuzzSwitch}, fuzzSeed(typeOpen), []byte{fuzzSwitch},
		batchFrame(4, fuzzSeed(typeStats, 0), fuzzSeed(typeData, 0, 5), fuzzSeed(typeStats, 1), fuzzSeed(typeData, 0, 4))))
	add(join(fuzzSeed(typeOpen), batchFrame(3, fuzzSeed(typeData, 0, 8), fuzzSeed(typeData, 13, 8), fuzzSeed(typeStats, 0))))
	return seeds
}

// FuzzHandleMessage drives the gateway's wire-facing surface with an
// arbitrary byte stream — wire units on two connections sharing one
// table, allocation rounds between them, connections dying — and checks
// the table against the reference model after every step: nothing
// panics, each live session accounts for exactly the bits it was sent,
// no bit is ever found on a free slot, and no connection reaches a
// session that is not its own.
func FuzzHandleMessage(f *testing.F) {
	for _, seed := range fuzzCorpus() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		const k = 4
		g := newBare(k)
		sh := g.shards[0]
		sh.alloc = core.MustNewPhased(core.MultiParams{K: k, BO: 16 * k, DO: 2})
		conns := [2]*connState{g.getConnState(0, 0), g.getConnState(0, 0)}
		model := fuzzModel{live: make(map[int]*fuzzSession)}
		var tick bw.Tick
		rounds := func(n int) {
			for ; n > 0; n-- {
				g.round(tick)
				tick++
			}
			if n := g.m.roundPanics.Value(); n != 0 {
				t.Fatalf("%d allocation rounds panicked (contained, so the gateway lives; a failure all the same)", n)
			}
		}
		served := make(map[int]bw.Bits)
		// hangUp is the current connection's death, clean or over a
		// rejected unit. What a rejected unit applied before it failed
		// (an OPEN, batched DATA) is not the model's to know, so the
		// dropped-bits bounds start over from the gateway's count.
		hangUp := func(cur int, rejected bool) {
			g.releaseAll(conns[cur])
			for id, s := range model.live {
				if s.conn == cur {
					model.end(id, served[id])
				}
			}
			if rejected {
				model.closedLo, model.closedHi = sh.past.Dropped, sh.past.Dropped
			}
		}
		check := func(step string) {
			t.Helper()
			owned := [2]map[uint32]struct{}{ownedBy(g, conns[0]), ownedBy(g, conns[1])}
			if sh.slots.Tenants() != len(model.live) || len(owned[0])+len(owned[1]) != len(model.live) {
				t.Fatalf("after %s: %d slots in use, connections own %d+%d sessions, model has %d live",
					step, sh.slots.Tenants(), len(owned[0]), len(owned[1]), len(model.live))
			}
			taken := make(map[int]bool)
			for id, s := range model.live {
				if _, ok := owned[s.conn][uint32(id)]; !ok {
					t.Fatalf("after %s: session %#x missing from connection %d's owned set", step, id, s.conn)
				}
				slot := sh.slot(id)
				if taken[slot] || !sh.slots.Seated(slot) {
					t.Fatalf("after %s: session %#x on slot %d, which is free or shared", step, id, slot)
				}
				taken[slot] = true
				q := sh.slots.Queue(slot)
				got := q.Served() + q.Bits() + sh.slots.Pending(slot)
				if got > s.sent || (got < s.sent && s.sent <= sim.MaxBacklog) {
					t.Fatalf("after %s: session %#x was sent %d bits; served %d + queued %d + pending %d",
						step, id, s.sent, q.Served(), q.Bits(), sh.slots.Pending(slot))
				}
			}
			for slot := 0; slot < k; slot++ {
				if p, q := sh.slots.Pending(slot), sh.slots.Queue(slot); !taken[slot] && (p != 0 || q.Bits() != 0 || q.Served() != 0) {
					t.Fatalf("after %s: free slot %d holds %d pending, %d queued, %d served", step, slot, p, q.Bits(), q.Served())
				}
			}
			if d := sh.past.Dropped; d < model.closedLo || d > model.closedHi {
				t.Fatalf("after %s: ended sessions dropped %d bits, the model says %d..%d", step, d, model.closedLo, model.closedHi)
			}
		}

		// The stream reaches handleMessage through a 16-byte buffer, the
		// smallest bufio allows, so messages straddle its refills. A unit's
		// bytes are the ones the reader moved past.
		src := bytes.NewReader(in)
		r := bufio.NewReaderSize(src, 16)
		pos := func() int { return len(in) - src.Len() - r.Buffered() }
		var reply bytes.Buffer
		cur := 0
		for pos() < len(in) {
			clear(served)
			for id := range model.live {
				served[id] = sh.slots.Queue(sh.slot(id)).Served()
			}
			at := pos()
			switch op := in[at]; {
			case op >= fuzzRounds && op < fuzzRounds+4:
				r.ReadByte()
				rounds(int(op-fuzzRounds) + 1)
				check("rounds")
				continue
			case op == fuzzSwitch:
				r.ReadByte()
				cur = 1 - cur
				continue
			case op == fuzzHangUp:
				r.ReadByte()
				hangUp(cur, false)
				check("a hang-up")
				continue
			}
			reply.Reset()
			if err := g.handleMessage(r, &reply, conns[cur]); err != nil {
				hangUp(cur, true)
				check("a rejected unit")
				if !errors.Is(err, errProtocol) {
					break // the stream ran out mid-unit
				}
				continue
			}
			model.accepted(t, cur, in[at:pos()], reply.Bytes(), served)
			check("an accepted unit")
		}

		// Whatever the stream left pending must survive allocation rounds: a
		// panic there is contained, and still costs the shard its round.
		// They move every pending bit into its queue, and no slot ends up
		// holding more than the cap.
		rounds(3)
		check("the final rounds")
		for i := 0; i < k; i++ {
			if p, q := sh.slots.Pending(i), sh.slots.Queue(i).Bits(); p != 0 || q < 0 || q > sim.MaxBacklog {
				t.Fatalf("slot %d: %d bits pending, %d queued after the rounds", i, p, q)
			}
		}
	})
}

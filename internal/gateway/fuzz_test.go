package gateway

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

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

// FuzzHandleMessage asserts the gateway's wire-facing surface never
// panics on arbitrary byte streams and that slot accounting stays
// consistent with the connection's owned-session set no matter how the
// stream is mangled.
func FuzzHandleMessage(f *testing.F) {
	f.Add(fuzzSeed(typeOpen))
	f.Add(fuzzSeed(typeData, 0, 64))
	f.Add(append(fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64)...))
	f.Add(append(fuzzSeed(typeOpen), fuzzSeed(typeStats, 0)...))
	f.Add(append(fuzzSeed(typeOpen), fuzzSeed(typeClose, 0)...))
	f.Add(append(fuzzSeed(typeOpen), fuzzSeed(typeOpen)...))
	f.Add(fuzzSeed(typeStats, 3))
	f.Add(fuzzSeed(typeClose, 1<<31))
	f.Add(fuzzSeed(typeData, 7, 1<<63))
	f.Add(append(fuzzSeed(typeOpen), append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 64)...)...))
	f.Add([]byte{typeTrace, 1, 2, 3, 4, 5, 6, 7, 8, typeTrace})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{})
	// BATCH frames: empty, truncated count, oversized count, a clean
	// OPEN+DATA+DATA batch, a short count (extra message spills out of
	// the frame), nested BATCH, TRACE inside and wrapping a batch.
	f.Add([]byte{typeBatch, 0, 0})
	f.Add([]byte{typeBatch, 0})
	f.Add([]byte{typeBatch, 0xff, 0xff})
	f.Add(batchFrame(3, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64), fuzzSeed(typeData, 0, 8)))
	f.Add(batchFrame(1, fuzzSeed(typeOpen), fuzzSeed(typeData, 0, 64)))
	f.Add(batchFrame(1, batchFrame(0)))
	f.Add(batchFrame(2, fuzzSeed(typeOpen), append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, fuzzSeed(typeData, 0, 64)...)))
	f.Add(append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 9}, batchFrame(0)...))
	f.Add(batchFrame(2, fuzzSeed(typeOpen), fuzzSeed(typeClose, 0)))
	// Two volumes whose sum overflows an int64, unbatched and batched:
	// the arrivals a slot holds must saturate, or the round that enqueues
	// them panics.
	huge := fuzzSeed(typeData, 0, 1<<62)
	f.Add(append(fuzzSeed(typeOpen), append(huge, huge...)...))
	f.Add(batchFrame(3, fuzzSeed(typeOpen), huge, huge))

	f.Fuzz(func(t *testing.T, in []byte) {
		const k = 4
		g := newBare(k)
		g.shards[0].serve(core.MustNewPhased(core.MultiParams{K: k, BO: 16 * k, DO: 2}))
		cs := &connState{owned: make(map[int]struct{})}
		r := bytes.NewReader(in)
		for {
			if err := g.handleMessage(r, io.Discard, cs); err != nil {
				break
			}
		}
		for id := range cs.owned {
			if id < 0 || id >= k {
				t.Fatalf("owned session %d out of range", id)
			}
		}
		sh := g.shards[0]
		inUse := 0
		for i := 0; i < k; i++ {
			if sh.used.Has(i) {
				inUse++
			}
		}
		// A single connection's stream can only have opened the slots it
		// still owns; every used slot must be owned and vice versa.
		if inUse != len(cs.owned) {
			t.Fatalf("%d slots in use but connection owns %d sessions", inUse, len(cs.owned))
		}
		if inUse != sh.inUse {
			t.Fatalf("shard inUse = %d, counted %d", sh.inUse, inUse)
		}
		for id := range cs.owned {
			if !sh.used.Has(id) {
				t.Fatalf("owned session %d not marked used", id)
			}
		}
		// DATA must never have landed on a slot the stream did not own:
		// every pending entry outside the owned set must be zero.
		for i := 0; i < k; i++ {
			_, owned := cs.owned[i]
			if p := sh.slots.Pending(i); p < 0 || (!owned && p != 0) {
				t.Fatalf("pending[%d] = %d, owned = %v", i, p, owned)
			}
		}
		// Whatever the stream left pending must survive allocation rounds:
		// the tick goroutine has no recover, so a panic there is an outage.
		// They move every pending bit into its queue, and no slot ends up
		// holding more than the cap.
		for tick := bw.Tick(0); tick < 3; tick++ {
			g.round(tick)
		}
		for i := 0; i < k; i++ {
			if p, q := sh.slots.Pending(i), sh.slots.Queue(i).Bits(); p != 0 || q < 0 || q > sim.MaxBacklog {
				t.Fatalf("slot %d: %d bits pending, %d queued after the rounds", i, p, q)
			}
		}
	})
}

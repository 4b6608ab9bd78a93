package gateway

import (
	"net"
	"sync"
	"sync/atomic"

	"dynbw/internal/bw"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// shard owns a contiguous range of the gateway's slot table behind its
// own mutex: the per-slot state of the step kernel (sim.Slots: queue,
// pending arrivals, last rate, change count, and the sets of slots with
// work and with a tenant), the allocator serving that range, and the set
// of connections striped onto it. A single-shard gateway is exactly the
// classic design; sharding only splits the lock and the allocator's
// input, never the wire protocol or the accounting.
type shard struct {
	g     *Gateway
	idx   int // shard index (metrics stripe, ring stripe)
	base  int // first global slot owned by this shard
	alloc sim.SparseAllocator
	// work is an upper bound on the slots the next round will visit: the
	// slots the last round left backlogged plus one for every DATA applied
	// since. It is written with mu held — tick stores, apply adds,
	// inside the critical sections they have anyway — and read by the tick
	// loop without it, to decide whether the round is worth a fan-out.
	work atomic.Int64
	// due is the last round's Round.Due: the first tick at which a round
	// on this shard with no work must still ask the allocator. tick
	// writes it, and the tick loop reads it between rounds, ordered after
	// the write by running the round itself or by the tick workers' join.
	due bw.Tick

	mu    sync.Mutex
	slots sim.Slots             // guarded by shard.mu; what the kernel keeps per slot, and which slots are seated
	round sim.Round             // guarded by shard.mu; the last round's Step, reused
	conns map[net.Conn]struct{} // guarded by shard.mu; connections striped onto this shard
	// released counts the sessions ended and tags the next IDs: a slot is
	// re-let only after a release, so its tenants never share an ID.
	released uint32      // guarded by shard.mu
	past     sim.Tenancy // guarded by shard.mu; what ended tenancies, and the gaps between, add up to
}

// newShard builds the slot state for n slots starting at global index
// base. The caller sets alloc before the shard's first round.
func newShard(g *Gateway, idx, base, n int) *shard {
	return &shard{
		g:     g,
		idx:   idx,
		base:  base,
		slots: sim.NewSlots(n),
		conns: make(map[net.Conn]struct{}),
	}
}

// slot maps a wire session ID that names one of this shard's live
// sessions to the local slot it occupies.
func (sh *shard) slot(id int) int { return id&sh.g.indexMask - sh.base }

// index is the inverse of slot, less the tag: the global session index
// of a local slot.
func (sh *shard) index(slot int) int { return sh.base + slot }

// open begins a session on the shard's lowest free slot for the
// connection with the given serial and returns its wire ID, or fails when
// every slot is taken. The slot's owner word names the connection and the
// ID from the same critical section that claims the slot. Rate changes
// the slot collected while free go to past, not the session.
func (sh *shard) open(serial uint32) (id int, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, free, ok := sh.slots.Seat()
	if !ok {
		return 0, false
	}
	sh.past.Add(free)
	id = int(sh.released<<sh.g.indexBits) | sh.index(slot)
	sh.g.owners[sh.index(slot)].Store(ownerWord(serial, uint32(id)))
	return id, true
}

// release ends the live session a wire ID names: the slot's owner word
// is cleared before the slot is freed, so it can only ever name the
// slot's next tenant after this one's is gone; the kernel unseats the
// session (bits still pending or queued are dropped, and returned to be
// counted), and its tenancy joins past. A routed session's reservation
// goes back to this shard's link under the same lock a routed OPEN seats
// under, so the shard never holds more sessions than the router reserved.
func (sh *shard) release(id int) (dropped bw.Bits) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot := sh.slot(id)
	sh.g.owners[sh.index(slot)].Store(0)
	if r := sh.g.router; r != nil {
		r.Release(route.Session{ID: id & sh.g.indexMask, Rate: 1}, route.LinkID(sh.idx))
	}
	sh.released++
	t := sh.slots.Unseat(slot, sh.alloc)
	sh.past.Add(t)
	return t.Dropped
}

// apply runs a list of DATA and STATS for this shard under one lock
// acquisition, in order: a DATA adds to its slot's pending arrivals, a
// STATS reads its slot into its place in replies. It returns the bits
// the kernel policed away and whether the list held a DATA. timed, when
// not nil, is the connection of a timed message the list holds alone:
// the lock wait is its dispatch stage. apply releases the lock on every
// way out: a panic under it must leave the handler's deferred release,
// and the shard's rounds, a lock they can take.
func (sh *shard) apply(list []op, replies []statsReply, timed *connState) (policed bw.Bits, data bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if timed != nil {
		sh.g.spanMark(timed, stageDispatch)
	}
	var adds int64
	for _, o := range list {
		if o.at < 0 {
			policed += sh.slots.Add(sh.slot(int(o.id)), o.bits)
			adds++
		} else {
			replies[o.at] = sh.read(int(o.id))
		}
	}
	if adds > 0 {
		sh.work.Add(adds)
	}
	return policed, adds > 0
}

// read is the STATS reply for a live session's wire ID. Callers must
// hold sh.mu.
func (sh *shard) read(id int) statsReply {
	slot := sh.slot(id)
	q := sh.slots.Queue(slot)
	return statsReply{served: q.Served(), queued: q.Bits(), maxDelay: q.MaxDelay(), changes: sh.slots.Changes(slot)}
}

// quiet reports whether the shard's round at tick t would do nothing: no
// slot has work, as far as the lock-free estimate knows, and the kernel
// has said its allocator moves no rate before due. Such a round is
// skipped, lock and all. A DATA applied while the tick loop reads work
// is served on the next round, as if the round had taken the lock first.
func (sh *shard) quiet(t bw.Tick) bool {
	return sh.work.Load() == 0 && t < sh.due
}

// openCount reports the open-slot count (the per-shard sessions gauge).
func (sh *shard) openCount() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return int64(sh.slots.Tenants())
}

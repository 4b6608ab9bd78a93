package gateway

import (
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// shard owns a contiguous range of the gateway's slot table behind its
// own mutex: the per-slot state of the step kernel (sim.Slots: queue,
// pending arrivals, last rate, change count, and the set of slots with
// work), the allocator(s) serving that range, and the set of connections
// striped onto it. A single-shard gateway is exactly the classic design;
// sharding only splits the lock and the allocator's input, never the
// wire protocol or the accounting.
type shard struct {
	g    *Gateway
	idx  int // shard index (metrics stripe, ring stripe)
	base int // first global slot owned by this shard
	n    int // slots owned
	lm   int // slots per link within the shard (n unless multi-link)
	// allocs holds one allocator per link, in the form the kernel steps;
	// sharded and classic single-link gateways have exactly one.
	allocs []sim.SparseAllocator
	// work is an upper bound on the slots the next round will visit: the
	// slots the last round left backlogged plus one for every DATA applied
	// since. It is written with mu held — tick stores, the DATA paths add,
	// inside the critical sections they have anyway — and read by the tick
	// loop without it, to decide whether the round is worth a fan-out.
	work atomic.Int64

	mu    sync.Mutex
	slots sim.Slots   // guarded by shard.mu; what the kernel keeps per slot
	links []sim.Slots // guarded by shard.mu; each link's view of slots, stepped by its allocator
	used  bitset.Set  // guarded by shard.mu; slots taken by an open session
	// free[l] is a slot of link l below which every slot of the link is
	// taken: the first-fit scan starts there instead of at the link's
	// first slot, and a release below it lowers it.
	free  []int                 // guarded by shard.mu
	inUse int                   // guarded by shard.mu; open-slot count
	conns map[net.Conn]struct{} // guarded by shard.mu; connections striped onto this shard
	// released counts the sessions ended and tags the next IDs: a slot is
	// re-let only after a release, so its tenants never share an ID.
	released uint32      // guarded by shard.mu
	past     sim.Tenancy // guarded by shard.mu; what ended tenancies, and the gaps between, add up to
	// slotAt and indexAt map a session's index (its wire ID less the tag)
	// to its slot and back. Only a rebalance parts the two, so a one-link
	// shard keeps both nil.
	slotAt, indexAt []int32 // guarded by shard.mu
}

// newShard builds the slot state for n slots starting at global index
// base, as one link. The allocators are filled in by the caller
// (mode-dependent), through serve.
func newShard(g *Gateway, idx, base, n int) *shard {
	sh := &shard{
		g:     g,
		idx:   idx,
		base:  base,
		n:     n,
		slots: sim.NewSlots(n),
		used:  bitset.New(n),
		conns: make(map[net.Conn]struct{}),
	}
	sh.split(1)
	return sh
}

// split divides the shard's slots evenly into links. Callers must hold
// sh.mu, or not have shared the shard yet, and no session may be open.
func (sh *shard) split(links int) {
	sh.lm = sh.n / links
	sh.links = make([]sim.Slots, links)
	sh.free = make([]int, links)
	for l := range sh.links {
		sh.links[l] = sh.slots.Slice(l*sh.lm, (l+1)*sh.lm)
		sh.free[l] = l * sh.lm
	}
	if links > 1 {
		sh.slotAt = make([]int32, sh.n)
		sh.indexAt = make([]int32, sh.n)
		for i := range sh.slotAt {
			sh.slotAt[i], sh.indexAt[i] = int32(i), int32(i)
		}
	}
}

// serve splits the shard's slots evenly over the given allocators, one
// link each. A policy that is not a sim.SparseAllocator is wrapped here,
// once, so that the round has a single form to run.
func (sh *shard) serve(allocs ...sim.MultiAllocator) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(allocs) != len(sh.links) {
		sh.split(len(allocs))
	}
	sh.allocs = make([]sim.SparseAllocator, len(allocs))
	for l, a := range allocs {
		sh.allocs[l] = sim.Sparse(a, sh.lm)
	}
}

// next returns link l's lowest free slot — the one a scan from the link's
// first slot would find — or -1 when it is full. Callers must hold sh.mu.
func (sh *shard) next(l int) int {
	end := (l + 1) * sh.lm
	slot := sh.used.NextClear(sh.free[l], end)
	sh.free[l] = slot
	if slot < 0 {
		sh.free[l] = end
	}
	return slot
}

// claim takes link l's lowest free slot, if any. Callers must hold sh.mu.
func (sh *shard) claim(l int) int {
	slot := sh.next(l)
	if slot >= 0 {
		sh.used.Add(slot)
		sh.inUse++
	}
	return slot
}

// unclaim frees a slot. Callers must hold sh.mu.
func (sh *shard) unclaim(slot int) {
	sh.used.Remove(slot)
	sh.inUse--
	if l := slot / sh.lm; slot < sh.free[l] {
		sh.free[l] = slot
	}
}

// slot maps a wire session ID that names one of this shard's live
// sessions to the local slot it occupies. Callers must hold sh.mu.
func (sh *shard) slot(id int) int {
	i := id&sh.g.indexMask - sh.base
	if sh.slotAt != nil {
		return int(sh.slotAt[i])
	}
	return i
}

// index is the inverse of slot, less the tag: the global session index
// bound to a local slot. Callers must hold sh.mu.
func (sh *shard) index(slot int) int {
	if sh.indexAt != nil {
		slot = int(sh.indexAt[slot])
	}
	return sh.base + slot
}

// swapIndexes exchanges two slots' indexes. Callers must hold sh.mu.
func (sh *shard) swapIndexes(a, b int) {
	sh.indexAt[a], sh.indexAt[b] = sh.indexAt[b], sh.indexAt[a]
	sh.slotAt[sh.indexAt[a]], sh.slotAt[sh.indexAt[b]] = int32(a), int32(b)
}

// open begins a session and returns its wire ID. The router, keyed by the
// session's index, picks the link, so the index comes first: that of the
// shard's lowest free slot. The session takes the chosen link's lowest
// free slot and the two trade indexes (on one link they are one slot).
// Rate changes the slot collected while free go to past, not the session.
func (sh *shard) open() (id int, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	low, index := -1, -1 // a full shard asks the router all the same, so that it counts the block
	for l := 0; l < len(sh.free) && low < 0; l++ {
		low = sh.next(l)
	}
	if low >= 0 {
		index = sh.index(low)
	}
	l := sh.g.router.Place(route.Session{ID: index, Rate: 1})
	if l == route.Blocked {
		return 0, false
	}
	slot := sh.claim(int(l))
	if slot < 0 {
		// The router's books move in lockstep with used, under mu: an
		// admitted link has a free slot unless the whole shard is full.
		sh.g.router.Release(index)
		return 0, false
	}
	if slot != low {
		sh.swapIndexes(low, slot)
	}
	sh.past.Add(sh.slots.Vacate(slot))
	return int(sh.released<<sh.g.indexBits) | index, true
}

// release ends the live session a wire ID names and frees its slot: bits
// still pending or queued are dropped (and returned, to be counted), the
// link's policy is told, and what the session was served joins past.
func (sh *shard) release(id int) (dropped bw.Bits) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot := sh.slot(id)
	sh.unclaim(slot)
	sh.g.router.Release(id & sh.g.indexMask)
	sh.released++
	l := slot / sh.lm
	if p, ok := sh.allocs[l].(interface{ Leave(i int) }); ok {
		p.Leave(slot - l*sh.lm) // a policy with per-session state is told
	}
	t := sh.slots.Vacate(slot)
	sh.past.Add(t)
	return t.Dropped
}

// add applies one DATA message for the live session a wire ID names and
// returns the bits the kernel policed away. The lock wait is the timed
// message's dispatch stage. add, addGroup and stats release the lock on
// every way out: a panic under it must leave the handler's deferred
// release, and the shard's rounds, a lock they can take.
func (sh *shard) add(cs *connState, id int, bits bw.Bits) (policed bw.Bits) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.g.spanMark(cs, stageDispatch)
	policed = sh.slots.Add(sh.slot(id), bits)
	sh.work.Add(1)
	return policed
}

// addGroup applies a BATCH frame's DATA for this shard under one lock
// acquisition. Slots are resolved here, under the lock, so a concurrent
// rebalance cannot stale them.
func (sh *shard) addGroup(grp []pendingAdd) (policed bw.Bits) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, a := range grp {
		policed += sh.slots.Add(sh.slot(int(a.id)), a.bits)
	}
	sh.work.Add(int64(len(grp)))
	return policed
}

// stats reads what a STATS reply carries for the live session a wire ID
// names.
func (sh *shard) stats(cs *connState, id int) (served, queued bw.Bits, maxDelay bw.Tick, changes int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.g.spanMark(cs, stageDispatch)
	slot := sh.slot(id)
	q := sh.slots.Queue(slot)
	return q.Served(), q.Bits(), q.MaxDelay(), sh.slots.Changes(slot)
}

// openCount reports the open-slot count (the per-shard sessions gauge).
func (sh *shard) openCount() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return int64(sh.inUse)
}

// rebalance asks the router for load-evening moves and migrates each
// moved session's slot state — queue, pending bits, change count, its
// place in the kernel's active set, occupancy — to the lowest free slot
// on the destination link. Its index moves with it, so clients notice
// nothing. Callers must hold sh.mu (the tick worker does).
func (sh *shard) rebalance() {
	rb, ok := sh.g.router.(route.Rebalancer)
	if !ok {
		return
	}
	for _, mv := range rb.Rebalance(sh.g.rebalLimit) {
		src := sh.slot(mv.Session)
		dst := sh.claim(int(mv.To))
		if dst < 0 {
			// The router admitted the move, so its slot accounting says
			// there is room; a full link here means the two views diverged.
			sh.g.log.Log(slog.LevelWarn, "rebalance", "gateway: no free slot on rebalance target",
				"session", mv.Session, "to", int(mv.To))
			continue
		}
		sh.slots.Move(dst, src)
		sh.unclaim(src)
		sh.swapIndexes(src, dst)
	}
}

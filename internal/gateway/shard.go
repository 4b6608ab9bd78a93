package gateway

import (
	"log/slog"
	"net"
	"sync"

	"dynbw/internal/bitset"
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

	mu    sync.Mutex
	slots sim.Slots   // guarded by shard.mu; what the kernel keeps per slot
	links []sim.Slots // guarded by shard.mu; each link's view of slots, stepped by its allocator
	used  bitset.Set  // guarded by shard.mu; slots taken by an open session
	// free[l] is a slot of link l below which every slot of the link is
	// taken: the first-fit scan starts there instead of at the link's
	// first slot, and a release below it lowers it.
	free    []int                 // guarded by shard.mu
	inUse   int                   // guarded by shard.mu; open-slot count (fast exhaustion check)
	conns   map[net.Conn]struct{} // guarded by shard.mu; connections striped onto this shard
	nextExt int                   // guarded by shard.mu; next external session ID (multi-link)
	extSlot map[int]int           // guarded by shard.mu; external ID -> slot (multi-link only)
	slotExt []int                 // guarded by shard.mu; slot -> external ID, -1 when free (multi-link only)
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
// sh.mu, or not have shared the shard yet.
func (sh *shard) split(links int) {
	sh.lm = sh.n / links
	sh.links = make([]sim.Slots, links)
	sh.free = make([]int, links)
	for l := range sh.links {
		sh.links[l] = sh.slots.Slice(l*sh.lm, (l+1)*sh.lm)
		sh.free[l] = l * sh.lm
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

// routed readies the shard for multi-link mode, where wire session IDs
// are minted per OPEN and mapped to slots.
func (sh *shard) routed() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.extSlot = make(map[int]int)
	sh.slotExt = make([]int, sh.n)
	for i := range sh.slotExt {
		sh.slotExt[i] = -1
	}
}

// claim takes the lowest free slot of link l — exactly the slot a scan
// from the link's first slot would find — or returns -1 when the link is
// full. Callers must hold sh.mu.
func (sh *shard) claim(l int) int {
	end := (l + 1) * sh.lm
	slot := sh.used.NextClear(sh.free[l], end)
	if slot < 0 {
		sh.free[l] = end
		return -1
	}
	sh.used.Add(slot)
	sh.free[l] = slot + 1
	sh.inUse++
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

// open claims a free slot first-fit and returns the wire session ID
// (single-link mode: the global slot index, base + local offset).
func (sh *shard) open() (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.inUse == sh.n {
		return 0, false
	}
	slot := sh.claim(0)
	if slot < 0 {
		return 0, false
	}
	return sh.base + slot, true
}

// openRouted claims a slot in multi-link mode: ask the router for a
// link, mint a fresh external ID, and bind it to a free slot on that
// link. Only the single shard of a multi-link gateway calls this.
func (sh *shard) openRouted() (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ext := sh.nextExt
	l := sh.g.router.Place(route.Session{ID: ext, Rate: 1})
	if l == route.Blocked {
		return 0, ErrSessionLimit
	}
	slot := sh.claim(int(l))
	if slot < 0 {
		// Router and gateway occupancy are updated in lockstep under mu,
		// so an admitted link always has a free slot; recover anyway.
		sh.g.router.Release(ext)
		return 0, ErrSessionLimit
	}
	sh.nextExt++
	sh.slotExt[slot] = ext
	sh.extSlot[ext] = slot // bwlint:allocok OPEN only, bounded by the slot limit
	return ext, nil
}

// release frees the slot behind a wire session ID.
func (sh *shard) release(id int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.g.router == nil {
		if i := id - sh.base; sh.used.Has(i) {
			sh.unclaim(i)
		}
		return
	}
	if slot, ok := sh.extSlot[id]; ok {
		sh.unclaim(slot)
		sh.slotExt[slot] = -1
		delete(sh.extSlot, id)
		sh.g.router.Release(id)
	}
}

// slot maps a validated wire session ID to this shard's local slot
// index. Callers must hold sh.mu.
func (sh *shard) slot(id int) int {
	if sh.g.router != nil {
		return sh.extSlot[id] // the router shard owns the whole table: local == global
	}
	return id - sh.base
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
// on the destination link. The external session ID is stable across the
// move, so clients notice nothing. Callers must hold sh.mu (the tick
// worker does).
func (sh *shard) rebalance() {
	rb, ok := sh.g.router.(route.Rebalancer)
	if !ok {
		return
	}
	for _, mv := range rb.Rebalance(sh.g.rebalLimit) {
		src, ok := sh.extSlot[mv.Session]
		if !ok {
			continue
		}
		dst := sh.claim(int(mv.To))
		if dst < 0 {
			// The router admitted the move, so its slot accounting says
			// there is room; a full link here means the two views diverged.
			sh.g.log.Log(slog.LevelWarn, "rebalance", "gateway: no free slot on rebalance target",
				"session", mv.Session, "to", int(mv.To)) // bwlint:allocok cold: router/shard divergence, rate-limited warn
			continue
		}
		sh.slots.Move(dst, src)
		sh.unclaim(src)
		sh.slotExt[src], sh.slotExt[dst] = -1, mv.Session
		sh.extSlot[mv.Session] = dst // bwlint:allocok key already present, no table growth
	}
}

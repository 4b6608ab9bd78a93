package gateway

import (
	"log/slog"
	"net"
	"sync"

	"dynbw/internal/bw"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// shard owns a contiguous range of the gateway's slot table behind its
// own mutex: the per-slot state of the step kernel (sim.Slots: queue,
// last rate, change count), the allocator(s) serving that range, and the
// set of connections striped onto it. A single-shard gateway is exactly
// the classic design; sharding only splits the lock and the allocator's
// input, never the wire protocol or the accounting.
type shard struct {
	g    *Gateway
	idx  int // shard index (metrics stripe, ring stripe)
	base int // first global slot owned by this shard
	n    int // slots owned
	lm   int // slots per link within the shard (n unless multi-link)
	// allocs holds one allocator per link; sharded and classic
	// single-link gateways have exactly one.
	allocs []sim.MultiAllocator

	mu      sync.Mutex
	pending []bw.Bits             // guarded by shard.mu; arrivals accumulated since the last tick
	used    []bool                // guarded by shard.mu; slot taken by an open session
	slots   sim.Slots             // guarded by shard.mu; what the kernel keeps per slot
	inUse   int                   // guarded by shard.mu; open-slot count (fast exhaustion check)
	conns   map[net.Conn]struct{} // guarded by shard.mu; connections striped onto this shard
	nextExt int                   // guarded by shard.mu; next external session ID (multi-link)
	extSlot map[int]int           // guarded by shard.mu; external ID -> slot (multi-link)
	slotExt []int                 // guarded by shard.mu; slot -> external ID, -1 when free (multi-link)
}

// newShard builds the slot state for n slots starting at global index
// base. The allocators are filled in by the caller (mode-dependent).
func newShard(g *Gateway, idx, base, n int) *shard {
	sh := &shard{
		g:       g,
		idx:     idx,
		base:    base,
		n:       n,
		lm:      n,
		pending: make([]bw.Bits, n),
		used:    make([]bool, n),
		slots:   sim.NewSlots(n),
		conns:   make(map[net.Conn]struct{}),
		extSlot: make(map[int]int),
		slotExt: make([]int, n),
	}
	for i := range sh.slotExt {
		sh.slotExt[i] = -1
	}
	return sh
}

// open claims a free slot first-fit and returns the wire session ID
// (single-link mode: the global slot index, base + local offset).
func (sh *shard) open() (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.inUse == sh.n {
		return 0, false
	}
	for i := 0; i < sh.n; i++ {
		if !sh.used[i] {
			sh.used[i] = true
			sh.inUse++
			return sh.base + i, true
		}
	}
	return 0, false
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
	slot := -1
	for s := int(l) * sh.lm; s < (int(l)+1)*sh.lm; s++ {
		if !sh.used[s] {
			slot = s
			break
		}
	}
	if slot < 0 {
		// Router and gateway occupancy are updated in lockstep under mu,
		// so an admitted link always has a free slot; recover anyway.
		sh.g.router.Release(ext)
		return 0, ErrSessionLimit
	}
	sh.nextExt++
	sh.used[slot] = true
	sh.inUse++
	sh.slotExt[slot] = ext
	sh.extSlot[ext] = slot // bwlint:allocok OPEN only, bounded by the slot limit
	return ext, nil
}

// release frees the slot behind a wire session ID.
func (sh *shard) release(id int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.g.router == nil {
		if i := id - sh.base; sh.used[i] {
			sh.used[i] = false
			sh.inUse--
		}
		return
	}
	if slot, ok := sh.extSlot[id]; ok {
		sh.used[slot] = false
		sh.inUse--
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
// moved session's slot state — queue, change count, pending bits,
// occupancy — to a free slot on the destination link. The external
// session ID is stable across the move, so clients notice nothing.
// Callers must hold sh.mu (the tick worker does).
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
		dst := -1
		for s := int(mv.To) * sh.lm; s < (int(mv.To)+1)*sh.lm; s++ {
			if !sh.used[s] {
				dst = s
				break
			}
		}
		if dst < 0 {
			// The router admitted the move, so its slot accounting says
			// there is room; a full link here means the two views diverged.
			sh.g.log.Log(slog.LevelWarn, "rebalance", "gateway: no free slot on rebalance target",
				"session", mv.Session, "to", int(mv.To)) // bwlint:allocok cold: router/shard divergence, rate-limited warn
			continue
		}
		sh.slots.Move(dst, src)
		sh.pending[dst] = sh.pending[src]
		sh.pending[src] = 0
		sh.used[src], sh.used[dst] = false, true
		sh.slotExt[src], sh.slotExt[dst] = -1, mv.Session
		sh.extSlot[mv.Session] = dst // bwlint:allocok key already present, no table growth
	}
}

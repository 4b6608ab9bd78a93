package gateway

import (
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// Stats is the gateway-wide accounting snapshot returned by Close: totals
// over the gateway's life, whichever sessions they belonged to, except
// Queued, which is what sits in the queues now. On a sharded gateway it is the merge of every shard's slice of the table;
// the per-slot bookkeeping is identical either way, so a sharded and an
// unsharded gateway fed the same deterministic trace report the same
// totals.
type Stats struct {
	Ticks          bw.Tick
	Served         bw.Bits
	Queued         bw.Bits
	Closed         bw.Bits // dropped: still pending or queued when their session ended
	SessionChanges int
	// MaxTotalRate is the running maximum, over completed rounds, of the
	// bandwidth allotted across all slots in one round.
	MaxTotalRate bw.Rate
	MaxDelay     bw.Tick
}

// Close stops serving immediately — Shutdown with no grace period.
func (g *Gateway) Close() Stats { return g.Shutdown(0) }

// Shutdown stops accepting new connections, keeps allocating and
// serving live sessions for up to grace (so in-flight exchanges finish
// and well-behaved clients CLOSE cleanly), then deadline-closes
// whatever remains, waits for the loops and handlers, and returns the
// final accounting. It is idempotent; repeated calls return the same
// snapshot.
func (g *Gateway) Shutdown(grace time.Duration) Stats {
	g.closeOnce.Do(func() {
		close(g.acceptStop)
		g.ln.Close()
		if grace > 0 {
			// The tick loop keeps serving during the grace window; wait
			// for handlers to drain on their own before forcing.
			handlersDone := make(chan struct{})
			go func() {
				g.wg.Wait()
				close(handlersDone)
			}()
			select {
			case <-handlersDone:
			case <-time.After(grace):
			}
		}
		close(g.closing)
		// Unblock handlers parked in reads on live client connections.
		for _, sh := range g.shards {
			sh.mu.Lock()
			for c := range sh.conns {
				c.Close()
			}
			sh.mu.Unlock()
		}
		g.wg.Wait()
		<-g.done
	})

	return g.stats()
}

// stats merges the shards' accounting: what ended tenancies left plus
// what every slot holds now. Callers run it once the tick loop has
// exited (or was never started), so maxTotalRate is final.
func (g *Gateway) stats() Stats {
	st := Stats{Ticks: bw.Tick(g.now.Load()), MaxTotalRate: g.maxTotalRate}
	var life sim.Tenancy
	for _, sh := range g.shards {
		sh.mu.Lock()
		life.Add(sh.past)
		for i := range sh.slots.Len() {
			q := sh.slots.Queue(i)
			life.Add(sim.Tenancy{Served: q.Served(), MaxDelay: q.MaxDelay(), Changes: sh.slots.Changes(i)})
			st.Queued += q.Bits()
		}
		sh.mu.Unlock()
	}
	st.Served, st.Closed, st.SessionChanges, st.MaxDelay = life.Served, life.Dropped, life.Changes, life.MaxDelay
	return st
}

// SessionInfo is one slot's live state, served as JSON by the admin
// /sessions endpoint.
type SessionInfo struct {
	Slot int `json:"slot"`
	// Shard is the gateway shard owning this slot (always 0 unsharded).
	Shard    int     `json:"shard"`
	Open     bool    `json:"open"`
	Rate     bw.Rate `json:"rate"`
	Queued   bw.Bits `json:"queued"`
	Served   bw.Bits `json:"served"`
	Changes  int     `json:"changes"`
	MaxDelay bw.Tick `json:"max_delay_ticks"`
}

// Sessions returns a point-in-time snapshot of every slot, in global
// slot order. Shards are snapshotted one at a time, so each shard's
// rows are internally consistent; cross-shard skew is bounded by the
// walk itself (no tick can interleave mid-shard).
func (g *Gateway) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, g.k)
	for _, sh := range g.shards {
		sh.mu.Lock()
		for i := range sh.slots.Len() {
			q := sh.slots.Queue(i)
			out = append(out, SessionInfo{
				Slot:     sh.index(i),
				Shard:    sh.idx,
				Open:     sh.slots.Seated(i),
				Rate:     sh.slots.Rate(i),
				Queued:   q.Bits(),
				Served:   q.Served(),
				Changes:  sh.slots.Changes(i),
				MaxDelay: q.MaxDelay(),
			})
		}
		sh.mu.Unlock()
	}
	return out
}

package gateway

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// TestSlotBytes is the per-slot byte budget of a live table, the shape of
// the repository benchmark's 100k workloads: 100 000 slots over 8 phased
// shards (B_O = 16 a slot, D_O = 8), every slot OPENed through two
// loopback Muxes. The gateway's live heap, read with the test's own
// client state set aside, is at most openedB a slot after the OPENs, and
// grows by at most busyB a slot over 100 rounds in which every session
// sends 8 bits a round. The second bound is the one a queue that kept
// its drained chunks broke, at about 2 KB a slot.
func TestSlotBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the table's")
	}
	const (
		k, nshards = 100_000, 8
		do         = bw.Tick(8)
		rounds     = 100
		openedB    = 117
		busyB      = 64
	)
	// What the test holds itself is allocated before the baseline.
	const nmux = 2
	ids := [nmux][]uint32{make([]uint32, 0, k/nmux), make([]uint32, 0, k/nmux)}
	items := [nmux][]BatchItem{make([]BatchItem, k/nmux), make([]BatchItem, k/nmux)}
	var muxes [nmux]*Mux
	// heap reads the live heap with the muxes' session sets dropped;
	// restore rebuilds them from ids.
	heap := func() float64 {
		for _, m := range muxes {
			if m != nil {
				m.open = nil
			}
		}
		return float64(liveHeap())
	}
	restore := func() {
		for c, m := range muxes {
			m.open, m.held = make(map[uint32]uint64), 0
			for _, id := range ids[c] {
				m.hold(id)
			}
		}
	}
	base := heap()

	ticks := newManualTicks()
	allocs := make([]sim.MultiAllocator, nshards)
	for i := range allocs {
		allocs[i] = newPolicy(t, "phased", k/nshards, bw.Rate(k/nshards)*16, do)
	}
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: k, Ticks: ticks.ch, Shards: nshards, ShardAllocs: allocs})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for c := range muxes {
		if muxes[c], err = DialMux(g.Addr(), 30*time.Second); err != nil {
			t.Fatal(err)
		}
		defer muxes[c].Close()
	}
	var wg sync.WaitGroup
	for c, m := range muxes {
		wg.Add(1)
		go func(c int, m *Mux) {
			defer wg.Done()
			for len(ids[c]) < cap(ids[c]) {
				id, err := m.Open()
				if err != nil {
					t.Errorf("OPEN %d on mux %d: %v", len(ids[c]), c, err)
					return
				}
				ids[c] = append(ids[c], id)
			}
		}(c, m)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	opened := (heap() - base) / k
	restore()

	for c := range muxes {
		for j, id := range ids[c] {
			items[c][j] = BatchItem{Session: id, Bits: 8}
		}
	}
	for r := int64(0); r < rounds; r++ {
		for c, m := range muxes {
			if err := m.SendBatch(items[c]); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Stats(ids[c][0]); err != nil { // the gateway has applied the batch
				t.Fatal(err)
			}
		}
		ticks.tick()
		waitRounds(g, r+1)
	}
	busy := (heap() - base) / k
	restore()
	t.Logf("gateway live heap: %.1f B a slot after the OPENs, %.1f B a slot after %d busy rounds", opened, busy, rounds)
	if opened > openedB {
		t.Errorf("%.1f B a slot after the OPENs, want <= %d", opened, openedB)
	}
	if busy > opened+busyB {
		t.Errorf("%.1f B a slot after %d rounds of 8 bits to every session, want <= %.1f + %d", busy, rounds, opened, busyB)
	}
	st := g.Close()
	if want := bw.Bits(rounds * 8 * k); st.Served+st.Queued != want {
		t.Errorf("the gateway accepted %d + %d bits, want %d", st.Served, st.Queued, want)
	}
}

// liveHeap is the process's live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

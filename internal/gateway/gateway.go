// Package gateway is the paper's multi-session scenario as a running
// service: an IP provider accepting client sessions over TCP, queueing
// their traffic, and dividing a shared bandwidth pool among them with one
// of the Section 3/4 algorithms, tick by tick. Each tick it runs the
// step kernel the simulator runs (sim.Slots.Step: over the slots with
// pending or queued bits, drain arrivals into the queues, ask the
// allocator for rates, validate them, serve, count changes), so the
// round that serves clients is the round Theorems 14/17 are verified on,
// and it reports the simulator's accounting — per-session served bits,
// delays and allocation changes — for a system that is actually serving
// clients. A round costs what the sessions with work cost, not what the
// table holds.
//
// A slot holds what a service reads and nothing that grows with uptime:
// its FIFO queue (chunks in flight, served and max-delay counters, no
// delay histogram), the arrivals pending for the next round (capped at
// sim.MaxBacklog, as the queue is: a client cannot declare its way past
// an int64), the last rate applied and a change counter — plus a bit in
// the kernel's active set and the gateway's occupancy bit. The full
// allocation history (bw.Schedule) is analysis state and lives only in
// the simulator; the peak total bandwidth is a running maximum folded
// once per round.
//
// Wire protocol (big endian over TCP):
//
//	OPEN:   type=1                       -> OPENED:   type=2, session uint32
//	                                     -> OPENFAIL: type=8 (all slots in use;
//	                                        the connection stays open for retry)
//	DATA:   type=3, session uint32, bits int64   (no reply)
//	STATS:  type=4, session uint32       -> STATSR: type=5, served, queued,
//	                                        maxDelay, changes int64
//	CLOSE:  type=6, session uint32       -> CLOSED: type=7 (the slot is free
//	                                        before the reply is written, so a
//	                                        client that has read CLOSED can
//	                                        immediately reopen)
//	TRACE:  type=9, trace uint64         (envelope: must be immediately
//	                                        followed by a normal message, which
//	                                        the gateway records a wire-path
//	                                        span for under the given trace ID)
//	BATCH:  type=10, count uint16, then count concatenated messages
//	                                        (any of the above except BATCH;
//	                                        TRACE envelopes ride in front of
//	                                        the message they wrap and do not
//	                                        count. count must be <= MaxBatch.
//	                                        Replies keep stream order and are
//	                                        coalesced into as few writes as
//	                                        possible)
//
// A session is a tenant of a slot, not the slot: it begins at OPEN with
// nothing queued and its counters at zero, and ends at CLOSE or with its
// connection, when bits still pending or queued are dropped, not
// delivered (Stats.Closed, dynbw_gateway_closed_bits_total). Its ID is
// opaque: tag << w | index, w the width of Slots-1, index the session's
// global slot, for life, tag its shard's count of ended sessions at the
// OPEN, wrapping. A slot is re-let only after a release, so successive
// tenants never share an ID; until the first CLOSE an ID is the slot
// number (DESIGN.md §10).
//
// A connection may OPEN any number of sessions and multiplex them (the
// Mux client; one TCP connection per session would exhaust descriptors
// long before the slot table does). DATA, STATS and CLOSE must name a
// live session the connection itself opened; anything else — another
// connection's, its own from before a CLOSE — is a protocol violation
// and drops the connection, ending every session it owned.
//
// The gateway pipelines: it keeps handling buffered input before
// flushing buffered replies, so a client that writes many requests
// back-to-back (or one BATCH frame) gets all the replies in one burst.
// Replies are flushed whenever the next read would block, so a
// request/reply client that awaits each answer at a message boundary
// observes exactly the unbuffered latencies. A client that half-sends a
// message and then waits for an earlier reply can wedge itself until
// the idle timeout; conforming clients either pipeline whole messages
// or await replies at message boundaries.
//
// # Sharding
//
// The slot table is split into Config.Shards shards (one unless said
// otherwise — the same code with a count of one, not another mode), each
// owning a contiguous slot range behind its own mutex, its own
// allocator over its own bandwidth share, and its own observability
// stripe. A session ID's index is a global slot number, so a session's
// shard is index/(Slots/Shards) — exchanges touching different shards
// never contend. An OPEN takes the lowest free slot of its connection's
// home shard, or of the next shard that has one; with Config.Router a
// placement policy (internal/route: greedy, DAR, p2c) chooses the shard
// instead. The shard is the only partition of the bandwidth. The tick
// loop runs one allocation round on every shard
// — itself when the round is small, else fanned out to the tick workers
// and joined — before advancing the clock, so the cost measure and
// per-slot accounting are exactly the single-shard gateway's; /metrics,
// /sessions and Close() merge the shards back at read time.
package gateway

import (
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// Message type bytes.
const (
	typeOpen     byte = 1
	typeOpened   byte = 2
	typeData     byte = 3
	typeStats    byte = 4
	typeStatsR   byte = 5
	typeClose    byte = 6
	typeClosed   byte = 7
	typeOpenFail byte = 8
	// typeTrace is a client->gateway envelope, not a message: a trace ID
	// (uint64) that must be immediately followed by a normal message. The
	// gateway records a span for that message under the client's ID.
	typeTrace byte = 9
	// typeBatch is a framing byte, not a message: a uint16 count followed
	// by that many concatenated messages, handled as one pipelined unit.
	typeBatch byte = 10
)

// MaxBatch is the maximum number of logical messages one BATCH frame may
// carry; a larger wire count is a protocol violation. The client's batch
// calls (Mux.SendBatch, Mux.StatsBatch) split longer inputs into multiple
// frames transparently.
const MaxBatch = 4096

// Buffered-endpoint sizes for the per-connection pooled reader/writer.
// The read buffer bounds how much pipelined input one drain pass can see
// without a syscall; the write buffer bounds how many coalesced replies
// accumulate before an early flush.
const (
	connReadBufSize  = 4096
	connWriteBufSize = 4096
)

// statsReplyLen is the wire size of a STATSR message (type byte + four
// big-endian int64 fields).
const statsReplyLen = 1 + 4*8

// maxAcceptBackoff caps the exponential backoff of the accept loop on
// persistent Accept errors (e.g. file-descriptor exhaustion under a swarm).
const maxAcceptBackoff = time.Second

// ErrSessionLimit is returned to callers when every allocator slot is
// taken.
var ErrSessionLimit = errors.New("gateway: all session slots in use")

// errProtocol is returned by handleMessage on a malformed or out-of-order
// message; the handler responds by dropping the connection.
var errProtocol = errors.New("gateway: protocol violation")

// Config parameterizes a gateway beyond the required listen address,
// allocator and tick source.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Slots is the number of session slots k served by the allocator.
	Slots int
	// Alloc divides the shared pool among the slots once per tick. It is
	// shorthand for a one-element list: the gateway runs one allocator
	// list, one entry per shard, read from ShardAllocs, else Alloc alone.
	// Each must also be a sim.SparseAllocator, the form the kernel runs.
	Alloc sim.MultiAllocator
	// Shards splits the slot table into that many independently locked
	// shards (Slots must divide evenly; zero means one), each served by
	// its own allocator from ShardAllocs over Slots/Shards slots.
	Shards int
	// ShardAllocs holds one allocator per shard. Each divides its shard's
	// bandwidth share among Slots/Shards slots, and serves no other shard.
	ShardAllocs []sim.MultiAllocator
	// Router, when set, places each OPEN on a shard. Its K() must equal
	// Shards and its capacities are in slot units (Slots/Shards a shard).
	// Nil tries the connection's home shard first and spills over to the
	// next. Attach observers/metrics to it before starting.
	Router *route.Policy
	// Ticks advances the allocator: one allocation round per value.
	Ticks <-chan time.Time
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between messages (and how long a single message may take to arrive
	// and be answered). Idle or wedged clients are disconnected and their
	// slot recycled — required to survive swarms of short-lived sessions.
	// Zero means no deadline (trusted in-process clients).
	//
	// The deadline syscall is amortized: it is re-armed only once at
	// least a quarter of IdleTimeout has elapsed since the last arming,
	// not per message, so a busy connection pays at most four SetDeadline
	// calls per IdleTimeout instead of one per message. An idle client is
	// therefore disconnected after between 3/4 and 1 IdleTimeout of
	// silence.
	IdleTimeout time.Duration
	// Observer receives session lifecycle and idle-disconnect events
	// (nil disables). When it is an *obs.Ring, each shard emits through
	// its own ring stripe. Policy-level renegotiation events are
	// emitted by the allocator itself (obs.Observable).
	Observer obs.Observer
	// Metrics, when non-nil, registers the gateway's counters, gauges
	// and latency histograms. Hot-path counters are lock-striped and
	// merged at scrape time; they count every message. The exchange and
	// stage latency histograms hold the timed messages only (see
	// SpanSampleEvery).
	Metrics *obs.Registry
	// Spans, when non-nil, receives one wire-path span per timed
	// message. Build it with obs.NewSpanRing(n, gateway.StageNames()).
	Spans *obs.SpanRing
	// SpanSampleEvery is the period of the one sampler behind both the
	// latency histograms and the span ring: 1 message in this many, per
	// connection stripe, is timed — its stages go to the histograms and,
	// with Spans attached, a span to the ring. Messages a client sends
	// behind a TRACE envelope are always timed. Non-positive means
	// obs.DefaultSampleEvery; 1 times every message. Ignored when both
	// Metrics and Spans are nil: nothing is timed then.
	SpanSampleEvery int
	// TickBudget, when positive, counts allocation rounds that take
	// longer than this as tick overruns (dynbw_gateway_tick_overruns_total
	// and a flight-recorder trigger in cmd/bwgateway).
	TickBudget time.Duration
	// Policy labels the allocation-changes counter series (default
	// "unknown").
	Policy string
	// Log, when non-nil, receives rate-limited diagnostics for accept
	// failures, protocol violations and handler I/O errors — the paths
	// that were previously swallowed silently.
	Log *slog.Logger
}

// Gateway serves k session slots partitioned across independently locked
// shards, each shard's slots by one multi-session allocator of the list —
// one shard unless configured otherwise; with a router, a routing policy
// chooses the shard at OPEN time.
type Gateway struct {
	ln        net.Listener
	k         int // total slots
	spp       int // slots per shard (k/len(shards))
	indexBits int // a wire session ID is tag<<indexBits | index: the width of k-1
	indexMask int // selects the index of a wire session ID
	shards    []*shard
	// owners is the ownership column of the slot table, one word per
	// global slot: ownerWord(serial, id) of the live session and the
	// connection that opened it, 0 while the slot is free. A shard writes
	// its slots' words under its lock (open, release); the wire path reads
	// them without it (owns).
	owners      []atomic.Uint64
	serials     serialPool    // live connections' serials, recycled
	router      *route.Policy // places an OPEN on a shard; nil: home stripe first
	ticks       <-chan time.Time
	idleTimeout time.Duration

	shardObs []obs.Observer // per-shard emission handles: Config.Observer, or its stripes when it is an *obs.Ring
	m        *gwMetrics
	log      *obs.RateLimited

	spans      *obs.SpanRing // spans of timed messages (nil disables)
	sampler    *obs.Sampler  // 1-in-N timing decisions, striped like gwMetrics.connStripes
	tickBudget time.Duration
	// timed says whether the current round is profiled (roundSampleEvery):
	// written by the tick loop before the round's fan-out send, read by
	// the workers after their receive.
	timed bool
	// roundDur and roundRate are the current round's per-shard duration
	// (ns; timed rounds only) and allotted bandwidth; written by whoever
	// runs the shard's round — the tick loop, or a tick worker — and read
	// by the tick loop after the join (the WaitGroup orders a worker's
	// accesses).
	roundDur  []int64
	roundRate []bw.Rate
	imbalEwma int64 // tick-loop only: EWMA of max/mean shard duration, permille
	// maxTotalRate is the running peak of the per-round bandwidth summed
	// over shards; tick-loop only until the loop exits, then read by
	// Shutdown.
	maxTotalRate bw.Rate

	now      atomic.Int64 // completed allocation rounds
	nextConn atomic.Int64 // round-robin conn -> shard stripe assignment
	routed   atomic.Int64 // routed OPENs begun, the next one's router key

	// csPool recycles connStates (buffered endpoints, shard lists)
	// across connection churn, so accept/close cycles in a soak
	// stop allocating per-connection state.
	csPool sync.Pool

	tickCh chan int       // shard indices fanned out to the tick workers (nil without workers: 1 shard)
	tickWG sync.WaitGroup // joins one allocation round across shards
	fanned []int          // tick-loop only: the shards a fanned-out round sends

	wg         sync.WaitGroup
	acceptStop chan struct{} // closed when the listener stops accepting
	closing    chan struct{} // closed when the tick loop must exit
	done       chan struct{}
	closeOnce  sync.Once
}

// NewWithConfig starts a gateway from an explicit Config.
func NewWithConfig(cfg Config) (*Gateway, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("gateway: k = %d", cfg.Slots)
	}
	if cfg.Ticks == nil {
		return nil, fmt.Errorf("gateway: nil tick source")
	}
	nshards := max(cfg.Shards, 1)
	if cfg.Router != nil && cfg.Router.K() != nshards {
		return nil, fmt.Errorf("gateway: router spans %d links, config says %d shards", cfg.Router.K(), nshards)
	}
	// One allocator list, one entry per shard, under whichever of the two
	// field names it arrived.
	allocs := cfg.ShardAllocs
	if len(allocs) == 0 && cfg.Alloc != nil {
		allocs = []sim.MultiAllocator{cfg.Alloc}
	}
	if cfg.Slots%nshards != 0 {
		return nil, fmt.Errorf("gateway: %d slots do not divide across %d shards", cfg.Slots, nshards)
	}
	if len(allocs) != nshards {
		return nil, fmt.Errorf("gateway: %d allocators for %d shards", len(allocs), nshards)
	}
	for i, a := range allocs {
		if _, ok := a.(sim.SparseAllocator); !ok {
			return nil, fmt.Errorf("gateway: allocator %d of %d is %T, not a sim.SparseAllocator", i, nshards, a)
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	g := newGateway(cfg.Slots, nshards)
	g.ln = ln
	g.router = cfg.Router
	for i, sh := range g.shards {
		sh.alloc = allocs[i].(sim.SparseAllocator)
		g.shardObs[i] = obs.StripeOf(cfg.Observer, i)
	}
	g.ticks = cfg.Ticks
	g.idleTimeout = cfg.IdleTimeout
	g.m = newGWMetrics(cfg.Metrics, cfg.Policy, len(g.shards))
	g.spans = cfg.Spans
	if cfg.Metrics != nil || g.spans != nil {
		g.sampler = obs.NewSampler(uint64(max(cfg.SpanSampleEvery, 0)), g.m.connStripes)
	}
	g.tickBudget = cfg.TickBudget
	if cfg.Metrics != nil {
		for i, sh := range g.shards {
			sh := sh
			cfg.Metrics.GaugeFunc("dynbw_gateway_shard_sessions",
				"Session slots currently open, per gateway shard (sums to dynbw_gateway_active_sessions).",
				sh.openCount, obs.L("shard", strconv.Itoa(i)))
		}
	}
	g.log = obs.NewRateLimited(cfg.Log, time.Second)
	g.startTickWorkers()
	g.wg.Add(1)
	go g.acceptLoop()
	go g.tickLoop()
	return g, nil
}

// newGateway builds the shard skeletons of a k-slot gateway with no
// listener, allocators, or loops.
func newGateway(k, nshards int) *Gateway {
	g := &Gateway{
		k:          k,
		spp:        k / nshards,
		indexBits:  bits.Len(uint(k - 1)),
		acceptStop: make(chan struct{}),
		closing:    make(chan struct{}),
		done:       make(chan struct{}),
		m:          &gwMetrics{},
	}
	g.indexMask = 1<<g.indexBits - 1
	g.owners = make([]atomic.Uint64, k)
	g.shards = make([]*shard, nshards)
	for i := range g.shards {
		g.shards[i] = newShard(g, i, i*g.spp, g.spp)
	}
	g.shardObs = make([]obs.Observer, nshards)
	g.roundDur = make([]int64, nshards)
	g.roundRate = make([]bw.Rate, nshards)
	g.fanned = make([]int, 0, nshards)
	return g
}

// Addr returns the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// shardIndex maps a wire session ID to the index of its owning shard:
// the ID's index is a global slot number on a sharded gateway, so the
// shard is index / spp. The wire path keys its per-shard lists by it, so
// a message reads no shard header. Callers must have validated the ID
// (its index names a slot).
func (g *Gateway) shardIndex(id int) int {
	if len(g.shards) == 1 {
		return 0
	}
	return (id & g.indexMask) / g.spp
}

// shardOf maps a wire session ID to its owning shard (shardIndex).
func (g *Gateway) shardOf(id int) *shard { return g.shards[g.shardIndex(id)] }

// ownerWord is what a slot's owner word holds while the session with
// wire ID id, opened by the connection with the given serial, is its
// tenant. A serial is never 0, so neither is the word.
func ownerWord(serial, id uint32) uint64 { return uint64(serial)<<32 | uint64(id) }

// owns reports whether a wire ID names a live session that the
// connection with the given serial opened: one atomic load of the
// slot's owner word and a compare, with no lock. A foreign connection's
// session, a stale tag and an index past the last slot all fail it. It
// is the gateway's one ownership predicate: a CLOSE and a timed DATA or
// STATS call it where they are parsed, and check calls it on a unit's
// waiting DATA and STATS in one pass, so that their loads' cache misses
// overlap.
func (g *Gateway) owns(serial, id uint32) bool {
	i := uint(id) & uint(g.indexMask)
	return i < uint(len(g.owners)) && g.owners[i].Load() == ownerWord(serial, id)
}

// emitAt forwards an event through the given shard's emission handle,
// if an observer is attached.
func (g *Gateway) emitAt(shard int, e obs.Event) {
	if o := g.shardObs[shard]; o != nil {
		o.Event(e)
	}
}

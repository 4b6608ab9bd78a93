package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// RateLimited wraps a slog.Logger so hot paths can log per-event
// diagnostics without a wedged client swarm turning the log into the
// bottleneck: per key, at most one record per interval is emitted, with
// a "suppressed" attribute reporting how many records were dropped
// since the last one. The nil *RateLimited is a valid no-op, as is one
// built from a nil logger.
type RateLimited struct {
	log   *slog.Logger
	every time.Duration

	mu         sync.Mutex
	last       map[string]time.Time // guarded by mu
	suppressed map[string]int       // guarded by mu
}

// NewRateLimited wraps log, emitting at most one record per key per
// interval (non-positive intervals default to one second).
func NewRateLimited(log *slog.Logger, every time.Duration) *RateLimited {
	if log == nil {
		return nil
	}
	if every <= 0 {
		every = time.Second
	}
	return &RateLimited{
		log:        log,
		every:      every,
		last:       make(map[string]time.Time),
		suppressed: make(map[string]int),
	}
}

// Log emits msg with args at the given level, unless a record with the
// same key was emitted less than one interval ago.
func (r *RateLimited) Log(level slog.Level, key, msg string, args ...any) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if last, ok := r.last[key]; ok && now.Sub(last) < r.every {
		r.suppressed[key]++
		r.mu.Unlock()
		return
	}
	n := r.suppressed[key]
	r.suppressed[key] = 0
	r.last[key] = now
	r.mu.Unlock()
	if n > 0 {
		args = append(args, "suppressed", n)
	}
	r.log.Log(context.Background(), level, msg, args...)
}

package obs

import (
	"encoding/json"
	"io"
	"slices"
)

// ring is the package's one overwrite-oldest buffer: its capacity is
// allocated once at construction, and a push into a full ring replaces
// the oldest entry and counts it as dropped. The event ring's stripes,
// SpanRing and Recorder each hold one behind their own mutex; ring
// itself takes no lock.
type ring[T any] struct {
	buf     []T    // retained entries; insertion-ordered until full, then wrapping at next
	next    int    // once full, the oldest entry (the next to be overwritten)
	total   uint64 // entries ever pushed
	dropped uint64 // entries overwritten
}

// newRing returns a ring retaining the last n entries (n >= 1).
func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, 0, n)} }

func (r *ring[T]) push(v T) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// last returns the newest retained entry, or the zero T when empty.
func (r *ring[T]) last() (v T) {
	switch {
	case len(r.buf) == 0:
		return v
	case r.next == 0:
		return r.buf[len(r.buf)-1]
	}
	return r.buf[r.next-1]
}

// appendTo appends the retained entries to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	dst = slices.Grow(dst, len(r.buf))
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}

// writeJSONL writes head and then each row, one JSON object a line.
func writeJSONL[T any](w io.Writer, head any, rows []T) error {
	enc := json.NewEncoder(w)
	err := enc.Encode(head)
	for i := 0; err == nil && i < len(rows); i++ {
		err = enc.Encode(rows[i])
	}
	return err
}

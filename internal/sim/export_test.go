package sim

import (
	"dynbw/internal/bw"
	"dynbw/internal/queue"
)

// InPlace returns slot i's queue and line as they stand, brought up to
// nothing: what a read leaves in place is compared against it.
func (s *Slots) InPlace(i int) (queue.FIFO, bw.Tick) { return s.slots[i].q, s.slots[i].line }

// LinesLast returns the tick of the last round of the view that owns the
// table's drain lines.
func (s *Slots) LinesLast() bw.Tick { return s.lines.last }

// Prefix returns the view of the first k slots (prefix).
func (s *Slots) Prefix(k int) Slots { return s.prefix(k) }

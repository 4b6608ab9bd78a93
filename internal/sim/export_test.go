package sim

import (
	"dynbw/internal/bw"
	"dynbw/internal/queue"
)

// InPlace returns slot i's queue and line as they stand, brought up to
// nothing: what a read leaves in place is compared against it.
func (s *Slots) InPlace(i int) (queue.FIFO, bw.Tick) { return s.slots[i].q, s.slots[i].line }

// LinesLast returns the tick of the table's last round, through which
// its drain lines stand served.
func (s *Slots) LinesLast() bw.Tick { return s.run.last }

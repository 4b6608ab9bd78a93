package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dynbw/internal/bw"
)

// WriteCSV writes the trace as CSV with header "tick,bits", one row per
// tick. The format is the interchange format of the cmd/bwtrace tool.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bufw := bufio.NewWriter(w)
	if _, err := bufw.WriteString("tick,bits\n"); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for t, a := range tr.arrivals {
		bufw.WriteString(strconv.Itoa(t))
		bufw.WriteByte(',')
		bufw.WriteString(strconv.FormatInt(a, 10))
		bufw.WriteByte('\n')
	}
	if err := bufw.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

// ReadCSV parses a trace in the WriteCSV format. Missing ticks are not
// allowed; rows must be in tick order starting from 0.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var arrivals []bw.Bits
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "tick") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("line %d: want 2 fields, got %d", line, len(parts))
		}
		tick, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: tick: %w", line, err)
		}
		if tick != int64(len(arrivals)) {
			return nil, fmt.Errorf("line %d: tick %d out of order, want %d", line, tick, len(arrivals))
		}
		bits, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bits: %w", line, err)
		}
		if bits < 0 {
			return nil, fmt.Errorf("line %d: %w", line, ErrNegativeArrival)
		}
		arrivals = append(arrivals, bits)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	return New(arrivals)
}

// Multi is a set of per-session arrival streams of equal length — the input
// to the multi-session algorithms of Section 3.
type Multi struct {
	sessions []*Trace
}

// NewMulti builds a Multi from per-session traces. All traces must have the
// same length.
func NewMulti(sessions []*Trace) (*Multi, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("trace: NewMulti with no sessions")
	}
	n := sessions[0].Len()
	for i, s := range sessions {
		if s.Len() != n {
			return nil, fmt.Errorf("trace: session %d has length %d, want %d", i, s.Len(), n)
		}
	}
	cp := make([]*Trace, len(sessions))
	copy(cp, sessions)
	return &Multi{sessions: cp}, nil
}

// MustNewMulti is NewMulti but panics on error.
func MustNewMulti(sessions []*Trace) *Multi {
	m, err := NewMulti(sessions)
	if err != nil {
		panic(err)
	}
	return m
}

// K returns the number of sessions.
func (m *Multi) K() int { return len(m.sessions) }

// Len returns the common trace length.
func (m *Multi) Len() bw.Tick { return m.sessions[0].Len() }

// Session returns session i's trace.
func (m *Multi) Session(i int) *Trace { return m.sessions[i] }

// Aggregate returns the element-wise sum across sessions.
func (m *Multi) Aggregate() *Trace { return Sum(m.sessions...) }

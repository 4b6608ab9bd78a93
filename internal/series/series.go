// Package series extracts per-tick time series from simulation runs —
// demand, allocation, and queue occupancy — bucketed for plotting or
// terminal display. It is the data layer behind bwmulti's -plot and
// -series flags.
package series

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"dynbw/internal/bw"
	"dynbw/internal/trace"
)

// Point is one bucketed sample.
type Point struct {
	// T is the bucket's starting tick.
	T bw.Tick
	// V is the bucket's value (mean rate for flows, max for occupancy).
	V int64
}

// Demand returns the mean arrival rate per bucket of the trace.
func Demand(tr *trace.Trace, bucket bw.Tick) []Point {
	return bucketize(tr.Len(), bucket, func(a, b bw.Tick) int64 {
		return ceilMean(tr.Window(a, b), b-a)
	})
}

// Allocation returns the mean allocated rate per bucket of the schedule.
func Allocation(s *bw.Schedule, bucket bw.Tick) []Point {
	cur := s.Cursor()
	return bucketize(s.Len(), bucket, func(a, b bw.Tick) int64 {
		return ceilMean(cur.Integral(a, b), b-a)
	})
}

// QueueOccupancy replays the trace against the schedule and returns the
// maximum queue length in each bucket.
func QueueOccupancy(tr *trace.Trace, s *bw.Schedule, bucket bw.Tick) []Point {
	n := s.Len()
	if tr.Len() > n {
		n = tr.Len()
	}
	occupancy := make([]int64, n)
	var q bw.Bits
	cur := s.Cursor()
	for t := bw.Tick(0); t < n; t++ {
		q += tr.At(t)
		served := bw.Volume(cur.At(t), 1)
		if served > q {
			served = q
		}
		q -= served
		occupancy[t] = q
	}
	return bucketize(n, bucket, func(a, b bw.Tick) int64 {
		var m int64
		for t := a; t < b; t++ {
			if occupancy[t] > m {
				m = occupancy[t]
			}
		}
		return m
	})
}

// Values extracts just the values of a series, for the viz package.
func Values(pts []Point) []int64 {
	out := make([]int64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// WriteCSV writes aligned series as CSV: one column per named series,
// indexed by the first series' bucket ticks. All series must have the
// same length.
func WriteCSV(w io.Writer, names []string, cols ...[]Point) error {
	if len(names) != len(cols) {
		return fmt.Errorf("series: %d names for %d columns", len(names), len(cols))
	}
	if len(cols) == 0 {
		return fmt.Errorf("series: no columns")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("series: column %d has %d points, want %d", i, len(c), n)
		}
	}
	bufw := bufio.NewWriter(w)
	bufw.WriteString("tick")
	for _, name := range names {
		bufw.WriteByte(',')
		bufw.WriteString(name)
	}
	bufw.WriteByte('\n')
	for i := 0; i < n; i++ {
		bufw.WriteString(strconv.FormatInt(cols[0][i].T, 10))
		for _, c := range cols {
			bufw.WriteByte(',')
			bufw.WriteString(strconv.FormatInt(c[i].V, 10))
		}
		bufw.WriteByte('\n')
	}
	if err := bufw.Flush(); err != nil {
		return fmt.Errorf("series: flush: %w", err)
	}
	return nil
}

func bucketize(n, bucket bw.Tick, agg func(a, b bw.Tick) int64) []Point {
	if bucket < 1 {
		bucket = 1
	}
	var pts []Point
	for a := bw.Tick(0); a < n; a += bucket {
		b := a + bucket
		if b > n {
			b = n
		}
		pts = append(pts, Point{T: a, V: agg(a, b)})
	}
	return pts
}

func ceilMean(sum bw.Bits, ticks bw.Tick) int64 {
	if ticks <= 0 {
		return 0
	}
	return bw.RateOver(sum, ticks)
}

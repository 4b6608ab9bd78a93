package load

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"dynbw/internal/metrics"
)

// ms renders a nanosecond duration as milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// Markdown renders the run-wide report: a run header, the aggregate
// table, and the latency percentile table. label names the run (e.g. the
// policy under test).
func (r *Result) Markdown(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## bwload: %s\n\n", label)
	fmt.Fprintf(&b, "%d sessions over %d connections, mode %s, tick %v, send window %v, wall clock %v\n\n",
		r.Sessions, r.Conns, r.Mode, r.Tick, r.Duration, r.Elapsed.Round(time.Millisecond))

	fmt.Fprintf(&b, `| metric                           | value |
|----------------------------------|-------|
| sessions opened / failed         | %d / %d |
| open fails (retried)             | %d |
| sessions released                | %d |
| bursts sent / delivered          | %d / %d |
| bits sent / served               | %d / %d |
| drained                          | %v |
| throughput (bits/s)              | %.0f |
| session changes (renegotiations) | %d |
| max queue depth (bits)           | %d |
| max gateway delay (ticks)        | %d |

`, r.Opened, r.Failed, r.OpenFails, r.Released, r.Bursts, r.Delivered, r.BitsSent, r.BitsServed,
		r.Drained(), r.Throughput, r.Changes, r.MaxQueued, r.MaxDelayTicks)
	fmt.Fprintf(&b, "| latency (ms)    | count | p50 | p90 | p99 | max |\n")
	fmt.Fprintf(&b, "|-----------------|-------|-----|-----|-----|-----|\n")
	for _, row := range []struct {
		name string
		h    *metrics.Histogram
	}{{"session open   ", &r.Open}, {"burst delivery ", &r.Delivery}, {"stats roundtrip", &r.RTT}} {
		l := row.h.Latency()
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s |\n",
			row.name, l.Count, ms(l.P50), ms(l.P90), ms(l.P99), ms(l.Max))
	}
	return b.String()
}

// csvHeader is the per-session CSV schema emitted by CSV.
const csvHeader = "label,session,slot,ok,released,bursts,delivered,bits_sent,bits_served," +
	"final_queued,max_queued,changes,max_delay_ticks,max_delivery_ms\n"

// CSV writes one row per session (the aggregate is Markdown's), streamed
// so that a 100k-session run does not hold its 6 MB in memory. Passing
// header=false lets callers concatenate runs into one file.
func (r *Result) CSV(w io.Writer, label string, header bool) error {
	b := bufio.NewWriter(w)
	if header {
		b.WriteString(csvHeader)
	}
	for i := range r.PerSession {
		s := &r.PerSession[i]
		fmt.Fprintf(b, "%s,%d,%d,%t,%t,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			label, i, s.Slot, s.Err == nil, s.Released,
			s.Bursts, s.Delivered, s.BitsSent, s.BitsServed,
			s.FinalQueued, s.MaxQueued, s.Changes, s.MaxDelayTicks, ms(s.MaxDelivery))
	}
	return b.Flush()
}

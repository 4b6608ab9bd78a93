package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
)

// nSlices is how many equal slices the measured phases of a run are cut
// into, all set-ups together. A metric's value is the median over the
// undisturbed slices and its spread the interquartile range over them.
// The box this was built on changes speed by a quarter for seconds at a
// time; with slices a fifth of a second long at the benchmark's run
// length, a slow spell moves a few slices, not the median.
const nSlices = 40

// median returns the median of v (0 for an empty slice). v is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare returns the distance between the first and third quartile of
// v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives — the spread rule the benchmark
// contract applies across runs. Fewer than two values, or a zero median,
// have no spread.
func iqrShare(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	s := sorted(v)
	return (quartile(s, 3) - quartile(s, 1)) / math.Abs(m)
}

// quartile is statistics.quantiles' default "exclusive" method for the
// i-th of four cuts of the sorted sample s, len(s) >= 2.
func quartile(s []float64, i int) float64 {
	m := len(s) + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// percentile returns the nearest-rank p-quantile of durations (ns); the
// input is sorted in place.
func percentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(math.Ceil(p*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ns[i])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// sliced folds per-slice values into a metric: median, spread, and the
// number of timed samples behind it.
func sliced(unit string, perSlice []float64, samples int) Metric {
	return Metric{Value: median(perSlice), Unit: unit, Spread: iqrShare(perSlice), Samples: samples}
}

// stolen returns how long the hypervisor has kept this guest's virtual
// CPUs waiting to run so far: the steal column of /proc/stat, in clock
// ticks summed over the CPUs. It reads 0 where the kernel does not say.
func stolen() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(string(f[8]), 10, 64)
	return v
}

// minUndisturbed is how few slices a phase's metrics may rest on.
const minUndisturbed = nSlices / 5

// undisturbed returns the slices during which the hypervisor withheld
// the least CPU from this guest: those with no steal at all when there
// are minUndisturbed of them, which on a quiet box is every slice, and
// otherwise the minUndisturbed least disturbed ones with their ties.
// The choice looks at the kernel's steal counter only, never at what a
// slice measured.
func undisturbed(slices []sliceStats) []sliceStats {
	if len(slices) == 0 {
		return nil
	}
	stolen := make([]int64, len(slices))
	for i, s := range slices {
		stolen[i] = s.stolen
	}
	sort.Slice(stolen, func(i, j int) bool { return stolen[i] < stolen[j] })
	limit := stolen[len(stolen)-1]
	if len(stolen) > minUndisturbed {
		limit = stolen[minUndisturbed-1]
	}
	var keep []sliceStats
	for _, s := range slices {
		if s.stolen <= limit {
			keep = append(keep, s)
		}
	}
	return keep
}

// Package viz renders time series as terminal sparklines, so bwmulti
// -plot can show demand-vs-allocation shapes without leaving the shell.
package viz

import (
	"fmt"
	"strings"
)

// blocks are the eight sparkline glyphs from lowest to highest.
var blocks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a fixed-width sparkline, downsampling by
// taking the maximum within each cell (peaks matter for bandwidth). All
// series rendered with the same `top` share a scale; pass 0 to scale to
// the series' own maximum.
func Sparkline(vals []int64, width int, top int64) string {
	if len(vals) == 0 || width < 1 {
		return ""
	}
	cells := downsampleMax(vals, width)
	if top <= 0 {
		for _, v := range cells {
			if v > top {
				top = v
			}
		}
	}
	var b strings.Builder
	for _, v := range cells {
		if v < 0 {
			v = 0
		}
		idx := 0
		if top > 0 {
			idx = int((v*int64(len(blocks)) - 1) / top)
			if v == 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
			if idx < 0 {
				idx = 0
			}
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// Chart renders a labeled sparkline with its scale, e.g.
//
//	demand  ▁▂▇█▁... (max 256)
func Chart(label string, vals []int64, width int, top int64) string {
	var maxV int64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	return fmt.Sprintf("%-12s %s (max %d)", label, Sparkline(vals, width, top), maxV)
}

// Max returns the maximum of vals (0 for empty input), for sharing scales
// across charts.
func Max(vals ...[]int64) int64 {
	var m int64
	for _, series := range vals {
		for _, v := range series {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// downsampleMax reduces vals to exactly width cells, each the max of its
// span; if vals is shorter than width, it is returned cell-per-value.
func downsampleMax(vals []int64, width int) []int64 {
	if len(vals) <= width {
		out := make([]int64, len(vals))
		copy(out, vals)
		return out
	}
	out := make([]int64, width)
	for i := 0; i < width; i++ {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		var m int64
		for _, v := range vals[lo:hi] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentiles the tail rule chooses from, highest
// last: the usual p50/p90/p99/p99.9 steps. Finer steps would pick a
// percentile with barely ten samples beyond it on every workload, whose
// value jumps from run to run.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it, and false when even the median
// does not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// beyond is how many of n samples lie above the p-th percentile,
// rounded so that float error (100-99.9 < 0.1) cannot lose a sample.
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)*1e4) / 1e6
}

// percentile is the p-th percentile of xs by linear interpolation
// between closest ranks (the "inclusive" method). xs need not be sorted;
// it is not modified. An empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, the median and the third
// quartile with the same method as Python's
// statistics.quantiles(xs, n=4) (method "exclusive"), so the spreads
// this program prints match the ones an outside check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// The integer arithmetic and the clamp (which extrapolates for
	// tiny samples) follow CPython's implementation line by line.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total length covered by ivs, counting overlapping
// stretches once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span. Children that overlap one
// another, as the tasks of a two-worker pool do, are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.end - parent.start - unionLength(clipped)
}

// latencyStats summarises a latency sample: median, the tail percentile
// chosen by tailPercentile, and the value there, in milliseconds.
type latencyStats struct {
	N        int
	P50      float64
	TailP    float64
	TailMS   float64
	HaveTail bool
}

func summarise(ds []time.Duration) latencyStats {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	st := latencyStats{N: len(ms), P50: median(ms)}
	if p, ok := tailPercentile(len(ms)); ok {
		st.TailP, st.TailMS, st.HaveTail = p, percentile(ms, p), true
	}
	return st
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{123, 90, true}, // swarm-sweep: 41 points x 3 measures
		{999, 90, true},
		{1000, 99, true},
		{2304, 99, true}, // delivery-local
		{3456, 99, true}, // gossip-grid
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSummariseReportsTailAndSampleCount(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	st := summarise(ds)
	if st.N != 100 || !st.HaveTail || st.TailP != 90 {
		t.Fatalf("summarise: %+v, want n=100 with a p90 tail", st)
	}
	if math.Abs(st.TailMS-90.1) > 1e-9 || math.Abs(st.P50-50.5) > 1e-9 {
		t.Fatalf("summarise: p50 %v p90 %v, want 50.5 and 90.1", st.P50, st.TailMS)
	}
	if short := summarise(ds[:15]); short.HaveTail || short.TailMS != 0 {
		t.Fatalf("15 samples cannot have a tail, got %+v", short)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule an outside check applies to this benchmark's results.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4}, [3]float64{1.35, 3.1, 7.15}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3, 7, 6}, [3]float64{2, 4, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	pass := interval{0, 100}
	// Two pool workers: their tasks overlap in [20,40] and [60,70].
	tasks := []interval{
		{10, 40}, {20, 50}, // worker 0 then worker 1
		{60, 70}, {55, 75},
		{90, 120}, // runs past the parent's end: clipped to [90,100]
	}
	// Covered: [10,50] + [55,75] + [90,100] = 40 + 20 + 10 = 70.
	if got := selfTime(pass, tasks); got != 30 {
		t.Fatalf("selfTime = %d, want 30", got)
	}
	if got := selfTime(pass, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	if got := unionLength([]interval{{0, 10}, {0, 10}, {5, 10}}); got != 10 {
		t.Fatalf("identical intervals counted %d, want 10", got)
	}
}

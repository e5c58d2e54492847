package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must not assume order
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		percentile string
		beyond     int
	}{
		{1000, "p99", 10},
		{999, "p95", 49},
		{200, "p95", 10},
		{199, "p90", 19},
		{100, "p90", 10},
		{99, "max", 0},
		{1, "max", 0},
	} {
		got := tailOf(seq(tc.n))
		if got.Percentile != tc.percentile || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want %s with %d beyond", tc.n, got, tc.percentile, tc.beyond)
		}
		if got.Percentile == "max" && got.Value != float64(tc.n) {
			t.Errorf("n=%d: max = %v", tc.n, got.Value)
		}
	}
	// The reported value is the percentile itself, by linear
	// interpolation between closest ranks.
	if got := tailOf(seq(1000)); math.Abs(got.Value-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got.Value)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.base.Add(secs(s)) }
	root := tr.add(0, "experiments", "fig11", "", at(0), at(10))
	tr.add(root, "run", "a", "", at(1), at(4))
	tr.add(root, "run", "b", "", at(3), at(6))  // overlaps a: union is 1..6
	tr.add(root, "run", "c", "", at(9), at(12)) // clipped to the parent at 10
	got := tr.selfTimes()
	if math.Abs(got["experiments"]-4) > 1e-9 {
		t.Errorf("experiments self time = %v, want 4", got["experiments"])
	}
	if math.Abs(got["run"]-9) > 1e-9 {
		t.Errorf("run self time = %v, want 9", got["run"])
	}
}

func TestTailIdle(t *testing.T) {
	runs := [][2]float64{{0, 10}, {0, 4}, {4, 6}}
	// Last start at 4; from 4 to 6 both workers busy, 6 to 10 one idle.
	if got := tailIdle([2]float64{0, 10}, runs, 2); math.Abs(got-2) > 1e-9 {
		t.Errorf("tail idle = %v, want 2", got)
	}
	if got := tailIdle([2]float64{20, 30}, runs, 2); got != 0 {
		t.Errorf("tail idle without runs = %v", got)
	}
}

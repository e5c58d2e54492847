package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// tail is a latency distribution's tail summary: the highest of p99,
// p95 and p90 that still has at least minBeyond samples above it.
type tail struct {
	Percentile string  `json:"percentile"` // "p99", "p95", "p90" or "max"
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"` // total samples in the distribution
	Beyond     int     `json:"beyond"`  // samples strictly above the reported rank
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as the tail.
const minBeyond = 10

// tailOf applies the tail rule. With too few samples for even p90 to
// have minBeyond samples past it, it reports the maximum, labelled
// "max", so the output never claims a percentile it cannot support.
func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		// Samples beyond the q-quantile: those ranked above floor(q*n).
		beyond := n - int(math.Ceil(p.q*float64(n)))
		if beyond >= minBeyond {
			return tail{Percentile: p.name, Value: quantile(xs, p.q), Samples: n, Beyond: beyond}
		}
	}
	return tail{Percentile: "max", Value: maxOf(xs), Samples: n}
}

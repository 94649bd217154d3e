package main

import (
	"math"
	"sort"
)

// Pct is one percentile of a sample set, with the evidence behind it: the
// number of samples it was computed from and how many lie strictly above
// it. A p90 over nine samples has nothing beyond it, so its value is just
// the largest sample; callers that need a tail estimate check Beyond.
type Pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default.
// An empty set yields a zero Pct with N == 0.
func percentile(xs []float64, q float64) Pct {
	if len(xs) == 0 {
		return Pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond := 0
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	return Pct{Value: v, N: len(s), Beyond: beyond}
}

// median is percentile(xs, 0.5).Value.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

package main

import (
	"math"
	"sort"
)

// dist is the spread of one metric's samples within a run.
type dist struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize returns the spread of xs, or nil for no samples.
func summarize(xs []float64) *dist {
	if len(xs) == 0 {
		return nil
	}
	s := sortedCopy(xs)
	return &dist{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (an idle layer wasted nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail picks the highest of tailPercentiles that leaves at least
// tailMinBeyond samples beyond it and returns that percentile and its
// value. With too few samples for any of them it returns 100 and the
// maximum.
func tail(xs []float64) (p, v float64) {
	if len(xs) == 0 {
		return 100, 0
	}
	s := sorted(xs)
	for _, p := range tailPercentiles {
		i := rankIndex(len(s), p)
		if len(s)-1-i >= tailMinBeyond {
			return p, s[i]
		}
	}
	return 100, s[len(s)-1]
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported.
const minBeyond = 10

// tailLevels are the candidate tail percentiles in per-mille, highest first.
var tailLevels = []struct {
	name     string
	perMille int
}{{"p99.9", 999}, {"p99", 990}, {"p90", 900}, {"p50", 500}}

// rank is the 1-based nearest-rank position of a per-mille percentile among
// n samples.
func rank(perMille, n int) int {
	return max(1, (perMille*n+999)/1000)
}

// percentile returns the nearest-rank per-mille percentile of sorted
// samples (0 when there are none).
func percentile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(perMille, len(sorted))-1]
}

// tailLevel picks the highest percentile with at least minBeyond of n
// samples beyond it; ok is false when even the median has too few.
func tailLevel(n int) (name string, perMille int, ok bool) {
	for _, l := range tailLevels {
		if n-rank(l.perMille, n) >= minBeyond {
			return l.name, l.perMille, true
		}
	}
	return "", 0, false
}

// latency summarizes one class of client-observed times.
type latency struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	Tail   string  `json:"tail"` // the highest percentile the sample count supports
	TailMs float64 `json:"tail_ms"`
}

func summarize(samples []float64) latency {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	l := latency{N: len(s), P50: percentile(s, 500), P90: percentile(s, 900)}
	if name, pm, ok := tailLevel(len(s)); ok {
		l.Tail, l.TailMs = name, percentile(s, pm)
	}
	return l
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 500)
}

// gmean is the geometric mean of positive samples (0 when there are none).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"math"
	"testing"
)

// TestTailLevel pins the percentile rule: the tail is the highest of
// p99.9, p99, p90 and p50 with at least ten samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, ""}, {19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p99.9"},
	} {
		got, _, ok := tailLevel(tc.n)
		if got != tc.want || ok != (tc.want != "") {
			t.Errorf("tailLevel(%d) = %q, %v; want %q", tc.n, got, ok, tc.want)
		}
	}
}

// TestSummarize checks the nearest-rank percentiles on 1..n and that the
// reported tail leaves exactly ten samples beyond it at each boundary.
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		n        int
		tail     string
		p50, p90 float64
	}{
		{100, "p90", 50, 90},
		{1000, "p99", 500, 900},
		{10000, "p99.9", 5000, 9000},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[tc.n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		l := summarize(samples)
		if l.N != tc.n || l.P50 != tc.p50 || l.P90 != tc.p90 || l.Tail != tc.tail {
			t.Errorf("n=%d: got %+v", tc.n, l)
		}
		beyond := 0
		for _, s := range samples {
			if s > l.TailMs {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond %s=%v, want %d", tc.n, beyond, l.Tail, l.TailMs, minBeyond)
		}
	}
}

// TestWindowFigures checks that a burst confined to a minority of windows
// does not move the median-over-windows figures.
func TestWindowFigures(t *testing.T) {
	ws := make([]window, 5)
	lengths := make([]float64, 5)
	for i := range ws {
		lengths[i] = 2
		ws[i].goodDialogues = 20
		for j := 1; j <= 100; j++ {
			ws[i].lat[classCreate] = append(ws[i].lat[classCreate], float64(j))
		}
	}
	// Two slow windows: every sample ten times slower, half the throughput.
	for _, i := range []int{1, 3} {
		for j := range ws[i].lat[classCreate] {
			ws[i].lat[classCreate][j] *= 10
		}
		ws[i].goodDialogues = 10
	}
	f := windowFigures(ws, lengths)
	if f.p50[classCreate] != 50 || f.p90[classCreate] != 90 || f.dialoguesPerS != 10 {
		t.Errorf("got p50=%v p90=%v dialogues/s=%v; want 50, 90, 10", f.p50[classCreate], f.p90[classCreate], f.dialoguesPerS)
	}
	if want := gmean(ws[0].lat[classCreate]); f.gmean[classCreate] != want {
		t.Errorf("got geometric mean %v; want the fast windows' %v", f.gmean[classCreate], want)
	}
	if f.minSamples["create_ms"] != 100 || f.minSamples["turn_ms"] != 0 {
		t.Errorf("fewest samples per window: %v", f.minSamples)
	}
}

// TestGmean checks the geometric mean, which scales with its samples.
func TestGmean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{1, 4, 16}, 4}, {[]float64{10, 40, 160}, 40},
	} {
		if got := gmean(tc.xs); math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("gmean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

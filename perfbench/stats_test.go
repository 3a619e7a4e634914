package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

// TestTailRule checks the reported tail: p99 once 1000+ samples leave ten
// beyond it, otherwise the highest percentile that does, with the count.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n        int
		wantTail float64
		wantPc   float64
	}{
		{n: 2000, wantTail: 1980, wantPc: 99},    // rank ceil(0.99*2000)=1980, 20 beyond
		{n: 1000, wantTail: 990, wantPc: 99},     // exactly 10 beyond p99
		{n: 500, wantTail: 490, wantPc: 98},      // p99 would leave 5: fall back to rank n-10
		{n: 200, wantTail: 190, wantPc: 95},      // rank 190 of 200
		{n: 11, wantTail: 1, wantPc: 100.0 / 11}, // one sample with ten beyond it
		{n: 10, wantTail: 10, wantPc: 100},       // too few: the maximum
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.N != c.n || got.Tail != c.wantTail || math.Abs(got.TailPc-c.wantPc) > 1e-9 {
			t.Errorf("n=%d: got tail %v at p%v (n=%d), want %v at p%v", c.n, got.Tail, got.TailPc, got.N, c.wantTail, c.wantPc)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Tail {
				beyond++
			}
		}
		if c.n > tailBeyond && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 {
		t.Errorf("empty summary = %+v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// TestMidThreshold: the threshold splits the scores near the middle and
// never equals a score.
func TestMidThreshold(t *testing.T) {
	if got := midThreshold([]float64{3, 1, 4, 2}); got != 2.5 {
		t.Errorf("got %v, want 2.5", got)
	}
	if got := midThreshold([]float64{1, 2, 2, 3}); got != 1.5 && got != 2.5 {
		t.Errorf("got %v, want a midpoint beside the tie", got)
	}
	if got := midThreshold([]float64{5, 5, 5}); !math.IsInf(got, -1) {
		t.Errorf("all-equal scores: got %v, want -Inf", got)
	}
}

package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail percentile:
// a tail figure resting on fewer samples is noise, so the reported "p99" is
// the highest percentile (capped at 99) that still has this many beyond it.
const tailBeyond = 10

// timing summarizes one set of latency samples the way every timing metric
// is reported: the median, and the highest percentile with at least
// tailBeyond samples beyond it, together with the sample count.
type timing struct {
	N      int
	P50    float64
	Tail   float64 // value at TailPc
	TailPc float64 // the percentile Tail reports, e.g. 99 or 96.7
}

// summarize sorts a copy of xs and applies the tail rule. With tailBeyond
// or fewer samples there is no percentile with enough samples beyond it;
// Tail is then the maximum and TailPc 100.
func summarize(xs []float64) timing {
	n := len(xs)
	if n == 0 {
		return timing{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{N: n, P50: quantileSorted(s, 0.5)}
	rank, pc := tailRank(n)
	t.Tail, t.TailPc = s[rank-1], pc
	return t
}

// tailRank returns the 1-based rank of the tail value among n sorted
// samples and the percentile it represents: rank ceil(0.99 n) when that
// leaves tailBeyond samples above it, else rank n-tailBeyond.
func tailRank(n int) (rank int, pct float64) {
	if n <= tailBeyond {
		return n, 100
	}
	rank = int(math.Ceil(0.99 * float64(n)))
	if n-rank < tailBeyond {
		rank = n - tailBeyond
	}
	return rank, 100 * float64(rank) / float64(n)
}

// quantileSorted is the linear-interpolation quantile of sorted data.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs (0 for none) without modifying xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

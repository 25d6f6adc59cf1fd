package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile (choosing-metrics guide, section 1).
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (0 < pct <= 100) of xs;
// 0 for an empty sample.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile reports the want-th percentile of xs when at least
// minBeyond samples lie beyond it, and otherwise the highest percentile
// that still has minBeyond samples beyond it (never below the median).
// used is the percentile actually reported, so a caller can tell a p99
// from the p98.2 a 560-sample pass can support.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	used = want
	if beyond := float64(n) * (1 - want/100); beyond < minBeyond {
		used = 100 * (1 - float64(minBeyond)/float64(n))
		if used < 50 {
			used = 50
		}
	}
	return percentile(xs, used), used
}

// quantile interpolates the q-quantile (0 < q < 1) of xs at position
// q·(n+1), the "exclusive" method Python's statistics.quantiles uses,
// clamped to the sample range.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// bestRound aggregates one wall metric over rounds: the best round's
// value (the smallest for lower-is-better). The host only ever adds
// time, in phases of 10-20 s that can cover most of a run; the best of
// nine rounds needs one clean two-second window, where a quartile over
// rounds needs three and a pooled median needs half the run.
func bestRound(perRound []float64, better string) float64 {
	if len(perRound) == 0 {
		return 0
	}
	s := sorted(perRound)
	if better == "higher" {
		return s[len(s)-1]
	}
	return s[0]
}

// quartileSpread is (Q3 - Q1) / median of xs, the spread the driver's
// contract measures repeatability by (with fewer than four values it
// is the range over the median).
func quartileSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	iqr, med := quantile(xs, 0.75)-quantile(xs, 0.25), quantile(xs, 0.5)
	if med == 0 {
		return iqr
	}
	return iqr / math.Abs(med)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

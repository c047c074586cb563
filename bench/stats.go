package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks — the same rule as numpy's
// default and Python's statistics.quantiles(method="inclusive"), so a
// reader can recompute any reported number from the raw samples.
// It returns NaN for an empty sample; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den with 0 for an empty denominator: a per-decision
// metric of a run that decided nothing is reported as 0 and the run is
// failed by its own contract check, not by a NaN in the output.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero maps the NaN of an empty sample to 0 (JSON has no NaN).
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

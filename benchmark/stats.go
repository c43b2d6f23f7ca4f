package main

import (
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// xs by the same exclusive method as Python's statistics.quantiles
// (n=4), which is what the driver's acceptance check uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank percentile of xs (p in 0..1): the
// value with at least a share p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	k := int(p*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// jain is Jain's fairness index over xs: 1 when all shares are equal,
// 1/n when one consumer got everything.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when there was nothing to divide by: a layer that
// did no work has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// gbph is user bytes per hour of d, in decimal GB as the paper counts.
func gbph(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e9 / d.Hours()
}

// overheadOf is the relative cost of tracing from paired timings of the
// same pass with recording on and off, taken by turns: the median of
// the pairs' ratios, minus one. Neighbours in time share the machine's
// state, so a pair's ratio holds still when both of its timings move.
func overheadOf(on, off []float64) float64 {
	ratios := make([]float64, len(on))
	for i := range on {
		ratios[i] = on[i] / off[i]
	}
	return median(ratios) - 1
}

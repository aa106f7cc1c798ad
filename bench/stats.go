package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first. 97.5 is there for tpch: its twenty query classes run
// equally often, so every multiple of 5% falls between two classes, where
// the nearest sample is one class's slowest run; p97.5 is the median of the
// slowest class.
var tailCandidates = []float64{99.9, 99, 97.5, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never a single
// outlier. With fewer than 40 samples it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// geomean is the geometric mean of the positive values; non-positive
// values are skipped (a class with no samples has no median).
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// sortedCopy returns vals ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile by interpolation between the two middle
// values.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive" method),
// which is what the benchmark driver computes its spreads from.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// delta may fall outside [0, 4]: small samples extrapolate, as
		// Python's do.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the driver compares against a metric's bound.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the middle two for an even
// count); NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	} else {
		return s[n/2]
	}
}

// spread is the distance between the first and third quartile as a
// share of the median: how far the passes (or rounds) of one run
// disagree, outliers aside. The quartiles are the ones Python's
// statistics.quantiles(v, n=4) gives, so the number reads like the
// run-to-run spread the benchmark is accepted on.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		delta := float64(i*(len(s)+1) - j*4)
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

// minBeyond is the sample-count rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0<q<1) of sorted and
// how many samples lie strictly beyond that rank. Callers check the
// count against minBeyond before trusting the value.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// tail is the q-quantile of sorted in microseconds, or NaN when fewer
// than minBeyond samples lie beyond it: a percentile nobody can trust
// is not reported.
func tail(sorted []time.Duration, q float64) float64 {
	v, beyond := percentile(sorted, q)
	if beyond < minBeyond {
		return math.NaN()
	}
	return micros(v)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

package perfmodel

// Memory-hierarchy recovery: the latency-ladder analogue of the Hockney
// fit. A pointer-chase ladder (internal/mem) is a staircase in
// log-working-set space — one plateau per cache level plus a final
// memory plateau, with knees at the level capacities. FitHierarchy
// recovers the staircase by optimal piecewise-constant segmentation
// (dynamic programming over the sorted samples), reports the goodness of
// the piecewise model as R^2 like FitHockney does, and experiment M4
// compares the recovered levels against a mem.Model's configured truth.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mem"
)

// ErrNonPositiveSample is returned when a latency ladder contains a
// non-positive measurement (the hierarchy fit works in log space).
var ErrNonPositiveSample = errors.New("perfmodel: non-positive latency sample")

// FittedLevel is one recovered hierarchy level.
type FittedLevel struct {
	Capacity int     // estimated capacity in bytes (knee position)
	Latency  float64 // estimated hit latency in seconds (plateau height)
}

// Hierarchy is the result of fitting a latency ladder.
type Hierarchy struct {
	// Levels are the recovered cache levels in ascending capacity
	// order. The final plateau of the ladder is reported separately as
	// MemLatency, not as a level: its capacity knee is beyond the sweep.
	Levels     []FittedLevel
	MemLatency float64 // latency of the last plateau (main memory)
	R2         float64 // goodness of the piecewise-constant fit
}

// minSegLen is the minimum samples per plateau: a single stray point in
// a knee transition must not become its own "level".
const minSegLen = 2

// distinctRatio is the minimum relative latency step between adjacent
// plateaus for them to count as separate levels; closer plateaus are
// merged (they are fit noise or knee-transition samples).
const distinctRatio = 1.30

// FitHierarchy recovers cache levels from a latency ladder. maxLevels
// bounds the number of cache levels searched for (the segmentation uses
// up to maxLevels+1 plateaus, the extra one being main memory). Every
// plateau takes minSegLen samples: the fit refuses fewer than two
// plateaus' worth, with an error wrapping ErrTooFewSamples, and resolves
// all maxLevels levels only from 2*(maxLevels+1) samples up. Sweeps
// should span from well under the smallest expected capacity to well
// past the largest.
func FitHierarchy(samples []mem.Sample, maxLevels int) (Hierarchy, error) {
	if maxLevels < 1 {
		maxLevels = 1
	}
	if len(samples) < 2*minSegLen {
		return Hierarchy{}, fmt.Errorf("%w: a hierarchy fit needs at least %d, got %d",
			ErrTooFewSamples, 2*minSegLen, len(samples))
	}
	sorted := make([]mem.Sample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Bytes < sorted[j].Bytes })

	// Segment in log-latency space: hierarchy levels are separated by
	// latency *ratios* (L1 to L2 is ~4x, LLC to memory ~10x), so a
	// linear-space objective would spend all its segments on the memory
	// step and never resolve the cache-to-cache knees.
	ys := make([]float64, len(sorted))
	for i, s := range sorted {
		if s.Seconds <= 0 {
			return Hierarchy{}, ErrNonPositiveSample
		}
		ys[i] = math.Log(s.Seconds)
	}

	// Optimal segmentation for each plateau count, then pick the
	// largest count that still earns its keep: each added plateau must
	// cut the residual substantially, or it is fitting the knees.
	maxSegs := maxLevels + 1
	if m := len(ys) / minSegLen; maxSegs > m {
		maxSegs = m
	}
	best := segmentBounds(ys, 1)
	for k := 2; k <= maxSegs; k++ {
		next := segmentBounds(ys, k)
		if sse(ys, next) < 0.5*sse(ys, best) {
			best = next
		} else {
			break
		}
	}
	best = mergeClose(ys, best)

	// Plateau heights: medians are robust to the knee-transition
	// samples at segment edges.
	heights := make([]float64, len(best))
	for i, seg := range best {
		heights[i] = median(ys[seg.lo : seg.hi+1])
	}

	h := Hierarchy{MemLatency: math.Exp(heights[len(heights)-1])}
	for i := 0; i < len(best)-1; i++ {
		// The knee sits between the last sample of this plateau and
		// the first of the next; the geometric mean is the natural
		// estimate on a log-size sweep.
		lo := float64(sorted[best[i].hi].Bytes)
		hi := float64(sorted[best[i+1].lo].Bytes)
		h.Levels = append(h.Levels, FittedLevel{
			Capacity: int(math.Sqrt(lo*hi) + 0.5),
			Latency:  math.Exp(heights[i]),
		})
	}

	// R^2 of the piecewise-constant model against the (log) samples.
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i, seg := range best {
		for j := seg.lo; j <= seg.hi; j++ {
			d := ys[j] - heights[i]
			ssRes += d * d
			dt := ys[j] - mean
			ssTot += dt * dt
		}
	}
	if ssTot > 0 {
		h.R2 = 1 - ssRes/ssTot
	} else {
		h.R2 = 1
	}
	return h, nil
}

// segment is an inclusive index range [lo, hi] of one plateau.
type segment struct{ lo, hi int }

// segmentBounds computes the optimal partition of ys into k contiguous
// segments (each at least minSegLen long) minimizing within-segment
// squared error — textbook 1-D dynamic programming over prefix sums.
func segmentBounds(ys []float64, k int) []segment {
	n := len(ys)
	// Prefix sums for O(1) segment cost.
	sum := make([]float64, n+1)
	sq := make([]float64, n+1)
	for i, y := range ys {
		sum[i+1] = sum[i] + y
		sq[i+1] = sq[i] + y*y
	}
	cost := func(lo, hi int) float64 { // inclusive range SSE about its mean
		cnt := float64(hi - lo + 1)
		s := sum[hi+1] - sum[lo]
		return (sq[hi+1] - sq[lo]) - s*s/cnt
	}

	const inf = math.MaxFloat64
	// dp[j][i]: best cost of splitting ys[0..i] into j segments.
	dp := make([][]float64, k+1)
	cut := make([][]int, k+1)
	for j := range dp {
		dp[j] = make([]float64, n)
		cut[j] = make([]int, n)
		for i := range dp[j] {
			dp[j][i] = inf
		}
	}
	for i := minSegLen - 1; i < n; i++ {
		dp[1][i] = cost(0, i)
	}
	for j := 2; j <= k; j++ {
		for i := j*minSegLen - 1; i < n; i++ {
			for c := (j-1)*minSegLen - 1; i-c >= minSegLen; c++ {
				if dp[j-1][c] == inf {
					continue
				}
				if v := dp[j-1][c] + cost(c+1, i); v < dp[j][i] {
					dp[j][i] = v
					cut[j][i] = c
				}
			}
		}
	}
	if dp[k][n-1] == inf {
		return []segment{{0, n - 1}}
	}
	segs := make([]segment, k)
	hi := n - 1
	for j := k; j >= 1; j-- {
		lo := 0
		if j > 1 {
			lo = cut[j][hi] + 1
		}
		segs[j-1] = segment{lo, hi}
		hi = lo - 1
	}
	return segs
}

// sse returns the total within-segment squared error of a partition.
func sse(ys []float64, segs []segment) float64 {
	total := 0.0
	for _, seg := range segs {
		cnt := float64(seg.hi - seg.lo + 1)
		var s, sq float64
		for j := seg.lo; j <= seg.hi; j++ {
			s += ys[j]
			sq += ys[j] * ys[j]
		}
		total += sq - s*s/cnt
	}
	return total
}

// mergeClose coalesces adjacent plateaus whose medians are within
// distinctRatio of each other — such a pair is one level split by knee
// samples, not two levels. ys are log latencies, so the ratio test is a
// difference test.
func mergeClose(ys []float64, segs []segment) []segment {
	out := append([]segment(nil), segs...)
	for i := 0; i+1 < len(out); {
		a := median(ys[out[i].lo : out[i].hi+1])
		b := median(ys[out[i+1].lo : out[i+1].hi+1])
		d := b - a
		if d < 0 {
			d = -d
		}
		if d < math.Log(distinctRatio) {
			out[i] = segment{out[i].lo, out[i+1].hi}
			out = append(out[:i+1], out[i+2:]...)
			if i > 0 {
				i-- // the merged plateau may now sit close to its left neighbour
			}
		} else {
			i++
		}
	}
	return out
}

// median returns the median of a (non-empty) slice without mutating it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

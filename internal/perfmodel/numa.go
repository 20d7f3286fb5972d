package perfmodel

// NUMA split recovery: the placement-axis extension of FitHierarchy.
// One latency ladder cannot separate local from remote memory latency —
// its final plateau is whatever mix the placement policy produced. Two
// ladders measured under opposite policies can: the FirstTouch ladder's
// memory plateau is the local latency, the Remote ladder's is the
// remote latency, and their ratio is the NUMA factor. Experiment M5
// runs this recovery against each modeled platform's configured truth,
// exactly as M4 does for the cache levels.

import (
	"fmt"

	"repro/internal/mem"
)

// NUMASplit is the local/remote memory-latency split recovered from a
// pair of placement-controlled ladders.
type NUMASplit struct {
	Local  float64 // memory plateau of the first-touch (all-local) ladder, seconds
	Remote float64 // memory plateau of the remote-placed ladder, seconds
	Ratio  float64 // Remote / Local, the NUMA factor
	R2     float64 // the weaker of the two underlying hierarchy fits
}

// FitNUMASplit recovers the local/remote memory-latency split from two
// ladders swept over the same machine under opposite placement
// policies: local chased over first-touch-placed pages, remote over
// remote-placed pages. Each ladder is segmented independently with
// FitHierarchy (maxLevels bounds each fit's cache-level search); the
// split is the pair of recovered memory plateaus. On a UMA machine the
// two plateaus coincide and Ratio is ~1.
func FitNUMASplit(local, remote []mem.Sample, maxLevels int) (NUMASplit, error) {
	fl, err := FitHierarchy(local, maxLevels)
	if err != nil {
		return NUMASplit{}, fmt.Errorf("perfmodel: local ladder: %w", err)
	}
	fr, err := FitHierarchy(remote, maxLevels)
	if err != nil {
		return NUMASplit{}, fmt.Errorf("perfmodel: remote ladder: %w", err)
	}
	if fl.MemLatency <= 0 || fr.MemLatency <= 0 {
		return NUMASplit{}, fmt.Errorf("perfmodel: non-positive memory plateau (local %g, remote %g)",
			fl.MemLatency, fr.MemLatency)
	}
	s := NUMASplit{
		Local:  fl.MemLatency,
		Remote: fr.MemLatency,
		Ratio:  fr.MemLatency / fl.MemLatency,
		R2:     fl.R2,
	}
	if fr.R2 < s.R2 {
		s.R2 = fr.R2
	}
	return s, nil
}

package mem

import (
	"fmt"
	"time"

	"repro/internal/par"
)

// The NUMA-aware probe: the measured counterpart of the model's
// Placement axis, mirroring how experiment F7 ablates first-touch
// initialization on the STREAM (bandwidth) side, here on the latency
// side. The working set's pages are faulted in by workers of a pinned
// team (par.NewPinnedTeam) according to a Placement policy, then a
// single pinned worker chases through them. On a first-touch operating
// system the faulting thread's node is where a page lands, so the
// policy controls the chaser's local/remote mix:
//
//   - FirstTouch: the chasing worker faults every page — all local.
//   - Interleave: pages are striped round-robin across all workers.
//   - Remote: only the non-chasing workers fault pages.
//
// Pinned teams place worker w on NUMA node w mod par.NUMANodes() (on
// Linux, via sysfs topology + sched_setaffinity), and the probe's
// default team size is the node count — so by default there is exactly
// one worker per node, Remote pages are all genuinely remote to the
// chaser, and Interleave stripes across every node. On a single-node
// (UMA) host the three curves coincide, which is itself the measured
// analogue of the model's degenerate case.

// numaChaseConfig configures one placement-controlled pointer-chase
// measurement: one point of a NUMALadder sweep.
type numaChaseConfig struct {
	// Bytes, Stride, Iters, Trials, Seed follow ChaseConfig semantics.
	Bytes, Stride, Iters, Trials int
	Seed                         uint64
	// Threads is the pinned team size used for initialization. The
	// default is par.NUMANodes() (minimum 2, so Remote always has a
	// non-chasing worker to fault from): with one worker per node —
	// which pinned teams arrange on Linux, worker w landing on node
	// w mod nodes — the worker-indexed policies below are exactly
	// node placement. Oversized teams dilute Remote: workers beyond
	// the node count wrap back onto the chaser's node.
	Threads int
	// PageBytes is the placement granularity: pages are assigned to
	// workers in units of this size (default os.Getpagesize(); must be
	// a positive multiple of both Stride and the OS page size, so a
	// placement page is a whole number of real pages).
	PageBytes int
	// Policy selects which workers fault the pages in.
	Policy Placement
}

func (c numaChaseConfig) normalize() numaChaseConfig {
	if c.Stride <= 0 {
		c.Stride = 64
	}
	if c.Iters <= 0 {
		c.Iters = 1 << 18
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Threads <= 0 {
		c.Threads = par.NUMANodes()
	}
	if c.Threads < 2 {
		c.Threads = 2
	}
	if c.PageBytes <= 0 {
		c.PageBytes = osPageBytes
	}
	return c
}

func (c numaChaseConfig) validate() error {
	if err := (ChaseConfig{Bytes: c.Bytes, Stride: c.Stride}).validate(); err != nil {
		return err
	}
	if c.PageBytes%c.Stride != 0 {
		return fmt.Errorf("mem: page size %d is not a multiple of stride %d", c.PageBytes, c.Stride)
	}
	if c.PageBytes%osPageBytes != 0 {
		return fmt.Errorf("mem: page size %d is not a multiple of the %d-byte OS page", c.PageBytes, osPageBytes)
	}
	return nil
}

// numaChaseOn runs one placement-controlled chase on an existing
// pinned team. Worker 0 is always the chaser; the policy decides which
// workers fault the pages in before the links are written.
func numaChaseOn(team *par.Team, cfg numaChaseConfig) (ChaseResult, error) {
	nslots := cfg.Bytes / cfg.Stride
	spaceWords := cfg.Stride / 4
	words := nslots * spaceWords
	// A page-aligned, never-touched buffer (anonymous mmap where
	// available): the kernel binds each page to a node at its first
	// fault, so whoever writes a page first decides where it lives.
	buf, free := allocPages(words)
	defer free()

	// Fault every OS page from its placement page's policy-chosen
	// worker. This must happen before any other write to buf —
	// everything after (linking, walking) only rewrites placed pages.
	pageWords := cfg.PageBytes / 4
	npages := (words + pageWords - 1) / pageWords
	team.Run(func(w int) {
		for pg := 0; pg < npages; pg++ {
			if numaPageOwner(pg, team.Size(), cfg.Policy) != w {
				continue
			}
			hi := (pg + 1) * pageWords
			if hi > words {
				hi = words
			}
			for i := pg * pageWords; i < hi; i += osPageWords {
				buf[i] = 0
			}
		}
	})

	start := linkCycle(buf, nslots, spaceWords, 0, cfg.Seed)

	// Time the chase on worker 0, the thread the placement policy is
	// defined against. The warm-up pass loads caches and TLB but
	// cannot move pages — they are already placed.
	var res ChaseResult
	team.Run(func(w int) {
		if w != 0 {
			return
		}
		p := walk(buf, start, nslots)
		best := 0.0
		for t := 0; t < cfg.Trials; t++ {
			t0 := time.Now()
			p = walk(buf, p, cfg.Iters)
			dt := time.Since(t0).Seconds()
			if t == 0 || dt < best {
				best = dt
			}
		}
		res = ChaseResult{
			Bytes:    nslots * cfg.Stride,
			Slots:    nslots,
			Seconds:  best / float64(cfg.Iters),
			Accesses: cfg.Iters,
			Checksum: p,
		}
	})
	return res, nil
}

// numaPageOwner returns the team worker that first-touches page pg
// under a policy. Worker 0 is the chaser, so FirstTouch assigns every
// page to it, Remote to everyone but it, and Interleave stripes pages
// across the whole team.
func numaPageOwner(pg, teamSize int, policy Placement) int {
	switch policy {
	case Interleave:
		return pg % teamSize
	case Remote:
		return 1 + pg%(teamSize-1)
	default: // FirstTouch
		return 0
	}
}

// NUMALadderConfig configures a placement-controlled working-set sweep.
type NUMALadderConfig struct {
	// MinBytes, MaxBytes, PointsPerOctave follow LadderConfig
	// semantics (defaults 4 KiB, 4 MiB, 2).
	MinBytes, MaxBytes, PointsPerOctave int
	// Stride, Iters, Trials, Seed, Threads, PageBytes, Policy are
	// passed through to each point's chase.
	Stride, Iters, Trials int
	Seed                  uint64
	Threads, PageBytes    int
	Policy                Placement
}

func (c NUMALadderConfig) normalize() NUMALadderConfig {
	if c.MinBytes <= 0 {
		c.MinBytes = 4 << 10
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 4 << 20
	}
	if c.PointsPerOctave <= 0 {
		c.PointsPerOctave = 2
	}
	return c
}

// NUMALadder runs a full working-set sweep under one placement policy
// on a single pinned team, returning one Sample per size in ascending
// order — the placement-controlled latency ladder. Comparing the
// FirstTouch and Remote ladders of one machine is what recovers the
// local/remote split (perfmodel.FitNUMASplit).
func NUMALadder(cfg NUMALadderConfig) ([]Sample, error) {
	cfg = cfg.normalize()
	sizes := SweepSizes(cfg.MinBytes, cfg.MaxBytes, cfg.PointsPerOctave, cfg.Stride)
	if len(sizes) == 0 {
		return nil, fmt.Errorf("mem: empty sweep [%d,%d]", cfg.MinBytes, cfg.MaxBytes)
	}
	probe := numaChaseConfig{
		Stride: cfg.Stride, Iters: cfg.Iters, Trials: cfg.Trials, Seed: cfg.Seed,
		Threads: cfg.Threads, PageBytes: cfg.PageBytes, Policy: cfg.Policy,
	}.normalize()
	team := par.NewPinnedTeam(probe.Threads)
	defer team.Close()
	out := make([]Sample, 0, len(sizes))
	for _, sz := range sizes {
		probe.Bytes = sz
		if err := probe.validate(); err != nil {
			return nil, err
		}
		res, err := numaChaseOn(team, probe)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Sample())
	}
	return out, nil
}

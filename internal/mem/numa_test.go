package mem

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/par"
)

func numaModel() *Model {
	m := testModel()
	m.NUMA = NUMA{Nodes: 4, RemoteLatency: 160e-9, RemoteTLBCost: 30e-9}
	return m
}

// TestPlacementDegeneratesOnUMA is the regression guard the NUMA axis
// promises: on a single-node model every placement policy reproduces
// the pre-NUMA latency bit-for-bit — not approximately, exactly.
func TestPlacementDegeneratesOnUMA(t *testing.T) {
	m := testModel() // zero-value NUMA: UMA
	for _, mode := range []Mode{Paged, BigMemory} {
		base := m.WithMode(mode)
		for _, s := range base.Ladder(4<<10, 64<<20, 4) {
			for _, p := range Placements {
				if got := m.Latency(s.Bytes, mode, p); got != s.Seconds {
					t.Fatalf("UMA %s/%s ws=%d: latency %g != pre-NUMA %g",
						mode, p, s.Bytes, got, s.Seconds)
				}
				if sd := m.PlacementSlowdown(s.Bytes, mode, p); sd != 1 {
					t.Fatalf("UMA %s/%s ws=%d: slowdown %g != 1", mode, p, s.Bytes, sd)
				}
			}
		}
	}
}

// A one-node NUMA struct (Nodes: 1) must behave identically to the
// zero value, whatever remote parameters ride along.
func TestPlacementSingleNodeExplicit(t *testing.T) {
	m := testModel()
	m.NUMA = NUMA{Nodes: 1, RemoteLatency: 999e-9, RemoteTLBCost: 999e-9}
	for _, p := range Placements {
		for _, ws := range []int{8 << 10, 1 << 20, 256 << 20} {
			if got, want := m.Latency(ws, BigMemory, p), testModel().Latency(ws, BigMemory, FirstTouch); got != want {
				t.Errorf("Nodes=1 %s ws=%d: latency %g != %g", p, ws, got, want)
			}
		}
	}
}

func TestPlacementOrdering(t *testing.T) {
	m := numaModel()
	ws := 256 << 20 // deep in memory
	local := m.Latency(ws, BigMemory, FirstTouch)
	inter := m.Latency(ws, BigMemory, Interleave)
	remote := m.Latency(ws, BigMemory, Remote)
	if !(local < inter && inter < remote) {
		t.Fatalf("placement ordering broken: local %g, interleave %g, remote %g", local, inter, remote)
	}
	// Plateau values follow the local-fraction mix exactly.
	if math.Abs(remote-160e-9) > 5e-9 {
		t.Errorf("remote plateau %g, want ~160ns", remote)
	}
	want := 0.25*90e-9 + 0.75*160e-9 // 4 nodes interleaved
	if math.Abs(inter-want) > 5e-9 {
		t.Errorf("interleave plateau %g, want ~%g", inter, want)
	}
	// Cache-resident working sets are placement-immune.
	for _, p := range Placements {
		if sd := m.PlacementSlowdown(8<<10, BigMemory, p); math.Abs(sd-1) > 1e-9 {
			t.Errorf("cache-resident slowdown under %s = %g, want 1", p, sd)
		}
	}
}

// Past paged TLB reach, remote placement pays the remote walk penalty
// on top of the base miss cost: the paged-over-bigmem gap grows from
// MissCost (local) to MissCost+RemoteTLBCost (remote).
func TestPlacementRemoteTLBCost(t *testing.T) {
	m := numaModel() // paged reach 1 MiB, bigmem reach 512 MiB
	ws := 32 << 20
	gapLocal := m.Latency(ws, Paged, FirstTouch) - m.Latency(ws, BigMemory, FirstTouch)
	gapRemote := m.Latency(ws, Paged, Remote) - m.Latency(ws, BigMemory, Remote)
	if math.Abs(gapLocal-m.TLB.MissCost) > 2e-9 {
		t.Errorf("local walk gap %g, want ~%g", gapLocal, m.TLB.MissCost)
	}
	want := m.TLB.MissCost + m.NUMA.RemoteTLBCost
	if math.Abs(gapRemote-want) > 2e-9 {
		t.Errorf("remote walk gap %g, want ~%g", gapRemote, want)
	}
}

func TestNUMAValidate(t *testing.T) {
	if err := numaModel().Validate(); err != nil {
		t.Errorf("valid NUMA model rejected: %v", err)
	}
	bad := numaModel()
	bad.NUMA.RemoteLatency = bad.MemLatency // not above local
	if err := bad.Validate(); err == nil {
		t.Error("remote latency not above local accepted")
	}
	bad = numaModel()
	bad.NUMA.RemoteTLBCost = -1e-9
	if err := bad.Validate(); err == nil {
		t.Error("negative remote TLB cost accepted")
	}
	bad = numaModel()
	bad.NUMA.Nodes = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative node count accepted")
	}
	// UMA models ignore the remote parameters entirely.
	ok := testModel()
	ok.NUMA = NUMA{Nodes: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("single-node NUMA rejected: %v", err)
	}
}

func TestPlacementStrings(t *testing.T) {
	want := map[Placement]string{FirstTouch: "first-touch", Interleave: "interleave", Remote: "remote"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Placement(%d).String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if len(Placements) != 3 || Placements[0] != FirstTouch {
		t.Errorf("Placements = %v, want first-touch first", Placements)
	}
}

func TestNUMAPageOwner(t *testing.T) {
	const team = 4
	seen := map[int]bool{}
	for pg := 0; pg < 64; pg++ {
		if w := numaPageOwner(pg, team, FirstTouch); w != 0 {
			t.Fatalf("first-touch page %d owned by %d, want 0", pg, w)
		}
		if w := numaPageOwner(pg, team, Remote); w == 0 || w >= team {
			t.Fatalf("remote page %d owned by %d, want 1..%d", pg, w, team-1)
		}
		w := numaPageOwner(pg, team, Interleave)
		if w < 0 || w >= team {
			t.Fatalf("interleave page %d owned by %d", pg, w)
		}
		seen[w] = true
	}
	if len(seen) != team {
		t.Errorf("interleave used %d workers, want %d", len(seen), team)
	}
}

// TestNUMAChaseRuns runs one placement-controlled chase per policy on a
// pinned team, the unit every NUMALadder point is built from.
func TestNUMAChaseRuns(t *testing.T) {
	team := par.NewPinnedTeam(2)
	defer team.Close()
	for _, p := range Placements {
		cfg := numaChaseConfig{
			Bytes: 64 << 10, Iters: 1 << 12, Trials: 1, Threads: 2, Policy: p,
		}.normalize()
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		res, err := numaChaseOn(team, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Seconds <= 0 {
			t.Errorf("%s: non-positive latency %g", p, res.Seconds)
		}
		if res.Slots != (64<<10)/64 {
			t.Errorf("%s: slots = %d, want %d", p, res.Slots, (64<<10)/64)
		}
	}
}

func TestNUMALadderRejectsBadConfig(t *testing.T) {
	if _, err := NUMALadder(NUMALadderConfig{MinBytes: 64, MaxBytes: 64, Stride: 64}); err == nil {
		t.Error("working set below two strides accepted")
	}
	if _, err := NUMALadder(NUMALadderConfig{MinBytes: 1 << 20, MaxBytes: 1 << 20, Stride: 96, PageBytes: 4096}); err == nil {
		t.Error("page size not a multiple of stride accepted")
	}
	if _, err := NUMALadder(NUMALadderConfig{MinBytes: 1 << 20, MaxBytes: 1 << 20, Stride: 64, PageBytes: 2048}); err == nil {
		t.Error("page size below the OS page accepted")
	}
}

// TestAllocPagesAligned asserts the probe buffer invariants both
// allocators promise: OS-page alignment (so placement pages are whole
// OS pages) and full writability of exactly the requested length.
func TestAllocPagesAligned(t *testing.T) {
	for _, alloc := range []func(int) ([]uint32, func()){allocPages, allocAligned} {
		for _, words := range []int{osPageWords / 2, osPageWords, 3*osPageWords + 5} {
			buf, free := alloc(words)
			if len(buf) != words {
				t.Fatalf("alloc(%d) returned %d words", words, len(buf))
			}
			if r := uintptr(unsafe.Pointer(&buf[0])) % uintptr(osPageBytes); r != 0 {
				t.Errorf("alloc(%d) not page-aligned (mod %d)", words, r)
			}
			for i := range buf {
				buf[i] = uint32(i)
			}
			if buf[words-1] != uint32(words-1) {
				t.Errorf("alloc(%d) buffer not writable to the end", words)
			}
			free()
		}
	}
}

func TestNUMALadderMeasured(t *testing.T) {
	for _, p := range Placements {
		samples, err := NUMALadder(NUMALadderConfig{
			MinBytes: 8 << 10, MaxBytes: 64 << 10,
			PointsPerOctave: 1, Iters: 1 << 10, Trials: 1, Threads: 2, Policy: p,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(samples) != 4 {
			t.Fatalf("%s: got %d samples, want 4", p, len(samples))
		}
		if last := samples[3].Bytes; last != 64<<10 {
			t.Errorf("%s: largest working set %d bytes, want %d", p, last, 64<<10)
		}
		for _, s := range samples {
			if s.Seconds <= 0 {
				t.Errorf("%s size %d: non-positive latency", p, s.Bytes)
			}
		}
	}
}

package perfmodel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

func ladderModel() *mem.Model {
	return &mem.Model{
		Name: "fit-test",
		Levels: []mem.Level{
			{Name: "L1", Capacity: 32 << 10, Latency: 1.5e-9},
			{Name: "L2", Capacity: 6 << 20, Latency: 5.5e-9},
		},
		MemLatency:     90e-9,
		TLB:            mem.TLB{Entries: 256, MissCost: 20e-9},
		PageBytes:      4 << 10,
		LargePageBytes: 2 << 20,
		Mode:           mem.BigMemory,
	}
}

// checkRecovery asserts the fit finds every true level within tol
// relative error on both capacity and latency.
func checkRecovery(t *testing.T, m *mem.Model, h Hierarchy, tol float64) {
	t.Helper()
	if len(h.Levels) < len(m.Levels) {
		t.Fatalf("recovered %d levels, want >= %d: %+v", len(h.Levels), len(m.Levels), h)
	}
	for _, truth := range m.Levels {
		bestCap, bestLat := 0.0, 0.0
		first := true
		for _, f := range h.Levels {
			ce := RelErr(float64(f.Capacity), float64(truth.Capacity))
			if first || ce < bestCap {
				bestCap, bestLat = ce, RelErr(f.Latency, truth.Latency)
				first = false
			}
		}
		if bestCap > tol {
			t.Errorf("level %s capacity off by %.0f%% (truth %d): %+v", truth.Name, bestCap*100, truth.Capacity, h.Levels)
		}
		if bestLat > tol {
			t.Errorf("level %s latency off by %.0f%% (truth %g): %+v", truth.Name, bestLat*100, truth.Latency, h.Levels)
		}
	}
}

func TestFitHierarchyRecoversModelTruth(t *testing.T) {
	m := ladderModel()
	samples := m.Ladder(4<<10, 64<<20, 4)
	h, err := FitHierarchy(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, m, h, 0.25)
	if RelErr(h.MemLatency, m.MemLatency) > 0.25 {
		t.Errorf("memory latency = %g, truth %g", h.MemLatency, m.MemLatency)
	}
	if h.R2 < 0.95 {
		t.Errorf("R2 = %g, want >= 0.95", h.R2)
	}
}

func TestFitHierarchyNoisy(t *testing.T) {
	m := ladderModel()
	samples := m.Ladder(4<<10, 64<<20, 4)
	// Multiplicative jitter of up to +/-5%, deterministic.
	r := rng.NewSplitMix64(42)
	for i := range samples {
		samples[i].Seconds *= 1 + 0.10*(r.Float64()-0.5)
	}
	h, err := FitHierarchy(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, m, h, 0.35)
}

func TestFitHierarchyThreeLevels(t *testing.T) {
	m := &mem.Model{
		Name: "three",
		Levels: []mem.Level{
			{Name: "L1", Capacity: 32 << 10, Latency: 1.4e-9},
			{Name: "L2", Capacity: 256 << 10, Latency: 4.0e-9},
			{Name: "L3", Capacity: 8 << 20, Latency: 13e-9},
		},
		MemLatency:     95e-9,
		TLB:            mem.TLB{Entries: 512, MissCost: 22e-9},
		PageBytes:      4 << 10,
		LargePageBytes: 1 << 30,
		Mode:           mem.BigMemory,
	}
	samples := m.Ladder(4<<10, 128<<20, 4)
	h, err := FitHierarchy(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, m, h, 0.25)
}

func TestFitHierarchySingleLevel(t *testing.T) {
	// A flat ladder (everything fits in one level) must not invent
	// levels.
	samples := make([]mem.Sample, 0, 12)
	for sz := 4 << 10; sz <= 8<<12; sz += 2 << 10 {
		samples = append(samples, mem.Sample{Bytes: sz, Seconds: 1.5e-9})
	}
	h, err := FitHierarchy(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 0 {
		t.Errorf("flat ladder produced levels: %+v", h.Levels)
	}
	if h.R2 != 1 {
		t.Errorf("flat ladder R2 = %g, want 1", h.R2)
	}
}

// TestFitHierarchyTooFew: a ladder shorter than two plateaus is refused
// with ErrTooFewSamples, and the error states the real minimum and the
// count it got; the first long enough is fitted.
func TestFitHierarchyTooFew(t *testing.T) {
	ladder := []mem.Sample{{Bytes: 1, Seconds: 1}, {Bytes: 2, Seconds: 1}, {Bytes: 4, Seconds: 1}, {Bytes: 8, Seconds: 1}}
	for n := range 2 * minSegLen {
		_, err := FitHierarchy(ladder[:n], 2)
		if !errors.Is(err, ErrTooFewSamples) {
			t.Fatalf("%d samples: err = %v, want ErrTooFewSamples", n, err)
		}
		if want := fmt.Sprintf("needs at least %d, got %d", 2*minSegLen, n); !strings.Contains(err.Error(), want) {
			t.Errorf("%d samples: err = %q, want it to say %q", n, err, want)
		}
	}
	if _, err := FitHierarchy(ladder, 2); err != nil {
		t.Errorf("%d samples: %v", len(ladder), err)
	}
}

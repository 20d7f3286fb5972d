package perfmodel

import (
	"math"
	"testing"

	"repro/internal/osu"
)

func synthLatency(alpha, beta float64, sizes []int) []osu.Sample {
	out := make([]osu.Sample, len(sizes))
	for i, s := range sizes {
		out[i] = osu.Sample{Size: s, Value: alpha + float64(s)*beta}
	}
	return out
}

func TestFitHockneyRecoversExact(t *testing.T) {
	alpha, beta := 2e-6, 1e-9
	samples := synthLatency(alpha, beta, []int{8, 64, 512, 4096, 65536})
	h, err := FitHockney(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Alpha-alpha) > 1e-12 || math.Abs(h.Beta-beta) > 1e-15 {
		t.Errorf("fit = %+v, want alpha %v beta %v", h, alpha, beta)
	}
	if h.R2 < 0.999 {
		t.Errorf("R2 = %v", h.R2)
	}
	if math.Abs(h.Predict(1000)-(alpha+1000*beta)) > 1e-12 {
		t.Errorf("Predict wrong")
	}
}

func TestFitHockneyClampsNegativeAlpha(t *testing.T) {
	// A noisy curve can fit a negative intercept; it must be clamped.
	samples := []osu.Sample{
		{Size: 100, Value: 5e-8}, {Size: 200, Value: 2e-7}, {Size: 400, Value: 5e-7},
	}
	h, err := FitHockney(samples)
	if err != nil {
		t.Fatal(err)
	}
	if h.Alpha < 0 {
		t.Errorf("alpha = %v, want clamped >= 0", h.Alpha)
	}
}

func TestFitHockneyTooFew(t *testing.T) {
	if _, err := FitHockney(nil); err != ErrTooFewSamples {
		t.Errorf("err = %v", err)
	}
	if _, err := FitHockney([]osu.Sample{{Size: 1, Value: 1}}); err != ErrTooFewSamples {
		t.Errorf("err = %v", err)
	}
}

func TestFitLogGP(t *testing.T) {
	lat := synthLatency(3e-6, 2e-9, []int{8, 64, 1024, 8192, 65536})
	// Bandwidth curve ramping to a 0.9 GB/s plateau.
	bw := []osu.Sample{
		{Size: 1024, Value: 2e8}, {Size: 8192, Value: 6e8},
		{Size: 65536, Value: 8.8e8}, {Size: 262144, Value: 9e8},
		{Size: 1 << 20, Value: 9.02e8}, {Size: 4 << 20, Value: 9e8},
	}
	fit, err := FitLogGP(lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	if RelErr(fit.LPlus2o, 3e-6) > 0.01 {
		t.Errorf("L+2o = %v", fit.LPlus2o)
	}
	if RelErr(fit.G, 2e-9) > 0.01 {
		t.Errorf("G = %v", fit.G)
	}
	if fit.GapBW < 8.8e8 || fit.GapBW > 9.1e8 {
		t.Errorf("plateau bw = %v", fit.GapBW)
	}
}

func TestFitLogGPValidation(t *testing.T) {
	lat := synthLatency(1e-6, 1e-9, []int{8, 64})
	if _, err := FitLogGP(lat, nil); err != ErrTooFewSamples {
		t.Errorf("err = %v", err)
	}
	if _, err := FitLogGP(nil, nil); err == nil {
		t.Error("nil latency accepted")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Errorf("RelErr(11,10) = %v", RelErr(11, 10))
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be Inf")
	}
}

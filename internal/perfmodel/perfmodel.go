// Package perfmodel extracts analytic communication-model parameters
// from measured micro-benchmark curves — the classic closing step of a
// platform characterization: fit the Hockney (alpha-beta) model to the
// ping-pong sweep, derive LogGP-style parameters, and report how well
// the model explains the measurements (experiment F13 compares fitted
// parameters against the simulator's configured truth).
package perfmodel

import (
	"errors"
	"math"

	"repro/internal/osu"
	"repro/internal/stats"
)

// Hockney holds the fitted alpha-beta model T(s) = Alpha + s*Beta.
type Hockney struct {
	Alpha float64 // startup latency (s)
	Beta  float64 // transfer time per byte (s/byte)
	R2    float64 // goodness of the linear fit
}

// Predict returns the modeled one-way time for an s-byte message.
func (h Hockney) Predict(s int) float64 { return h.Alpha + float64(s)*h.Beta }

// ErrTooFewSamples is returned when a fit has fewer points than it
// needs: two for FitHockney's latency curve, one for FitLogGP's
// bandwidth curve, 2*minSegLen for FitHierarchy (whose error says so).
var ErrTooFewSamples = errors.New("perfmodel: too few samples")

// FitHockney fits the alpha-beta model to a latency curve
// (osu.Latency output: size -> seconds).
func FitHockney(samples []osu.Sample) (Hockney, error) {
	if len(samples) < 2 {
		return Hockney{}, ErrTooFewSamples
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.Size)
		ys[i] = s.Value
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return Hockney{}, err
	}
	h := Hockney{Alpha: fit.Intercept, Beta: fit.Slope, R2: fit.R2}
	if h.Alpha < 0 {
		h.Alpha = 0 // a slightly negative intercept is fit noise
	}
	return h, nil
}

// LogGPFit holds LogGP-style parameters recovered from measurements.
// The ping-pong cannot separate L from 2o, so the sum is reported, as
// measurement studies do.
type LogGPFit struct {
	LPlus2o float64 // small-message one-way time: L + 2o (s)
	G       float64 // per-byte gap from the latency slope (s/byte)
	GapBW   float64 // streaming bandwidth from the bw test (bytes/s)
	R2      float64
}

// FitLogGP recovers parameters from a latency sweep and a bandwidth
// sweep: the latency intercept gives L+2o, its slope gives G, and the
// plateau of the bandwidth curve gives the streaming (gap-limited)
// bandwidth.
func FitLogGP(latency, bandwidth []osu.Sample) (LogGPFit, error) {
	h, err := FitHockney(latency)
	if err != nil {
		return LogGPFit{}, err
	}
	if len(bandwidth) == 0 {
		return LogGPFit{}, ErrTooFewSamples
	}
	// Streaming bandwidth: the mean of the top quartile of the curve
	// (the plateau), robust to the ramp-up region.
	vals := make([]float64, len(bandwidth))
	for i, s := range bandwidth {
		vals[i] = s.Value
	}
	q3, err := stats.Quantile(vals, 0.75)
	if err != nil {
		return LogGPFit{}, err
	}
	var plateau []float64
	for _, v := range vals {
		if v >= q3 {
			plateau = append(plateau, v)
		}
	}
	return LogGPFit{
		LPlus2o: h.Alpha,
		G:       h.Beta,
		GapBW:   stats.Mean(plateau),
		R2:      h.R2,
	}, nil
}

// RelErr returns |got-want|/|want|, the metric the F13 experiment
// reports for each recovered parameter.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

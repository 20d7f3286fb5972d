package stats

import "errors"

// LinearFit holds the result of an ordinary least-squares line fit
// y = Intercept + Slope*x. The harness uses it to extract Hockney model
// parameters (latency = intercept, 1/bandwidth = slope) from
// message-size sweeps, following the classic ping-pong regression.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	N         int
}

// FitLine computes the least-squares line through (xs[i], ys[i]).
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: FitLine length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: FitLine requires >= 2 points")
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLine degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         int(n),
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys identical and perfectly predicted by the mean
	}
	return fit, nil
}

// Eval returns the fitted value at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }

// AmdahlFit estimates the serial fraction s in Amdahl's law
// speedup(p) = 1 / (s + (1-s)/p) from measured (procs, speedup) pairs by
// least squares on the linearized form 1/speedup = s + (1-s)/p.
// It is used by the scaling experiments to summarize strong-scaling curves.
func AmdahlFit(procs []float64, speedup []float64) (serialFrac float64, err error) {
	if len(procs) != len(speedup) || len(procs) < 2 {
		return 0, errors.New("stats: AmdahlFit needs >=2 matched points")
	}
	// 1/S = s*(1 - 1/p) + 1/p  =>  y = s*x with y = 1/S - 1/p, x = 1 - 1/p.
	var sxx, sxy float64
	for i := range procs {
		p := procs[i]
		if p <= 0 || speedup[i] <= 0 {
			return 0, errors.New("stats: AmdahlFit requires positive data")
		}
		x := 1 - 1/p
		y := 1/speedup[i] - 1/p
		sxx += x * x
		sxy += x * y
	}
	if sxx == 0 {
		return 0, errors.New("stats: AmdahlFit degenerate (all p == 1?)")
	}
	s := sxy / sxx
	// Clamp to the physically meaningful range.
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s, nil
}

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

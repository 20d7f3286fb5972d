package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{1, 2, 3}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("Quantile(1.1) should error")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("Quantile on empty should return ErrEmpty")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMeanKahan(t *testing.T) {
	// 1e16 + many small values: naive summation loses them.
	xs := make([]float64, 0, 1001)
	xs = append(xs, 1e16)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1)
	}
	got := Mean(xs)
	want := (1e16 + 1000) / 1001
	if !almostEq(got, want, 1e-15) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Slope, 2, 1e-12) || !almostEq(f.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", f)
	}
	if !almostEq(f.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
	if !almostEq(f.Eval(10), 21, 1e-12) {
		t.Errorf("Eval(10) = %v, want 21", f.Eval(10))
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestFitLineConstY(t *testing.T) {
	f, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope != 0 || f.Intercept != 5 || f.R2 != 1 {
		t.Errorf("const-y fit = %+v", f)
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []uint32, qraw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q := float64(qraw) / 255
		got, err := Quantile(xs, q)
		if err != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// dftNaive is the O(n^2) reference DFT.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func randVec(n int, seed uint64) []complex128 {
	s := rng.NewSplitMix64(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(s.Sym(), s.Sym())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randVec(n, uint64(n))
		want := dftNaive(x)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(x, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err != ErrNotPow2 {
		t.Errorf("err = %v, want ErrNotPow2", err)
	}
	if err := Forward(nil); err != nil {
		t.Errorf("empty input should be a no-op, got %v", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 16, 1024} {
		x := randVec(n, 7)
		orig := append([]complex128(nil), x...)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := Inverse(x); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(x, orig); e > 1e-10*float64(n) {
			t.Errorf("n=%d: round-trip error %v", n, e)
		}
	}
}

func TestForwardDeltaIsConstant(t *testing.T) {
	// DFT of delta function is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("X[%d] = %v, want 1", i, v)
		}
	}
}

func TestForwardLinearityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		const n = 64
		a := randVec(n, uint64(seed))
		b := randVec(n, uint64(seed)+99)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		if Forward(a) != nil || Forward(b) != nil || Forward(sum) != nil {
			return false
		}
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2.
	f := func(seed uint16) bool {
		const n = 128
		x := randVec(n, uint64(seed))
		var before float64
		for _, v := range x {
			before += real(v)*real(v) + imag(v)*imag(v)
		}
		if Forward(x) != nil {
			return false
		}
		var after float64
		for _, v := range x {
			after += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(before-after/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFlops(t *testing.T) {
	if got := Flops(8); got != 5*8*3 {
		t.Errorf("Flops(8) = %v", got)
	}
}

func TestIsPow2(t *testing.T) {
	for n, want := range map[int]bool{0: false, 1: true, 2: true, 3: false, 1024: true, -4: false} {
		if IsPow2(n) != want {
			t.Errorf("IsPow2(%d) = %v", n, !want)
		}
	}
}

func BenchmarkForward1K(b *testing.B) {
	x := randVec(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

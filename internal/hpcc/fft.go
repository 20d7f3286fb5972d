package hpcc

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bytesview"
	"repro/internal/fft"
	"repro/internal/mp"
	"repro/internal/rng"
)

// FFTConfig configures the distributed FFT benchmark.
//
// Without Verify nothing is transformed: the sizes of the three
// transposes and the charged butterfly flops depend on N1, N2 and the
// rank count alone, so DistFFT makes the same Barrier, Alltoall and
// charge calls with no input, local FFTs, twiddles or packing, the
// Alltoalls run size-only (mp.Comm.SizeOnly), and Seconds and GFlops are
// those of the computed transform.
type FFTConfig struct {
	// N1, N2 factor the transform length N = N1*N2; both must be
	// powers of two divisible by the rank count.
	N1, N2 int
	// Seed selects the deterministic input signal.
	Seed uint64
	// Verify computes the transform, gathers the result and compares
	// it with a serial transform (only use at test sizes).
	Verify bool
	// ComputeRate, if positive, charges virtual time for local
	// butterfly work on the Sim fabric.
	ComputeRate float64
}

// FFTResult reports one distributed FFT run.
type FFTResult struct {
	N       int
	Seconds float64
	GFlops  float64 // 5 N log2 N / time
	MaxErr  float64 // -1 when not verified
}

// DistFFT computes a 1-D complex DFT of length N1*N2 with the six-step
// algorithm: three distributed transposes (all-to-all) around two local
// FFT sweeps plus a twiddle scaling. Input element j (natural order,
// viewed as an N1 x N2 row-major matrix distributed by rows) is
// generated deterministically from cfg.Seed.
func DistFFT(c *mp.Comm, cfg FFTConfig) (FFTResult, error) {
	p := c.Size()
	n1, n2 := cfg.N1, cfg.N2
	n := n1 * n2
	res := FFTResult{N: n, MaxErr: -1}
	if !fft.IsPow2(n1) || !fft.IsPow2(n2) {
		return res, fft.ErrNotPow2
	}
	if n1%p != 0 || n2%p != 0 {
		return res, fmt.Errorf("hpcc: FFT dims (%d,%d) not divisible by %d ranks", n1, n2, p)
	}

	myRows1 := n1 / p // rows held in n1 x n2 orientation
	myRows2 := n2 / p // rows held in n2 x n1 orientation
	var local, input []complex128
	if cfg.Verify {
		local = make([]complex128, myRows1*n2)
		s := rng.NewSplitMix64(cfg.Seed + uint64(c.Rank())*0x9e3779b97f4a7c15)
		for i := range local {
			local[i] = complex(s.Sym(), s.Sym())
		}
		input = append([]complex128(nil), local...)
	}
	// transpose moves n/p elements per rank whatever the orientation;
	// unverified, it moves only their size.
	transpose := func(m []complex128, r, cols int) ([]complex128, error) {
		if cfg.Verify {
			return distTranspose(c, m, r, cols)
		}
		buf := mp.SizeOnlyBuf[byte](16 * n / p)
		return nil, c.SizeOnly(func() error { return c.Alltoall(buf, buf) })
	}

	if err := c.Barrier(); err != nil {
		return res, err
	}
	t0 := c.Time()

	// Step 1: transpose n1 x n2 -> n2 x n1.
	t1, err := transpose(local, n1, n2)
	if err != nil {
		return res, err
	}
	// Steps 2 and 3: local FFTs of length n1 over my n2/p rows, then the
	// twiddle; global row index offsets into the n2 x n1 view.
	if cfg.Verify {
		if err := fftRows(t1, n1); err != nil {
			return res, err
		}
		rowOff := c.Rank() * myRows2
		nf := float64(n)
		for r := 0; r < myRows2; r++ {
			base := -2 * math.Pi * float64(rowOff+r) / nf
			row := t1[r*n1 : (r+1)*n1]
			for cc := range row {
				row[cc] *= cmplx.Exp(complex(0, base*float64(cc)))
			}
		}
	}
	charge(c, cfg.ComputeRate, float64(myRows2)*fft.Flops(n1))
	// Step 4: transpose back to n1 x n2.
	t2, err := transpose(t1, n2, n1)
	if err != nil {
		return res, err
	}
	// Step 5: local FFTs of length n2.
	if cfg.Verify {
		if err := fftRows(t2, n2); err != nil {
			return res, err
		}
	}
	charge(c, cfg.ComputeRate, float64(myRows1)*fft.Flops(n2))
	// Step 6: final transpose to natural output order (n2 x n1 view).
	out, err := transpose(t2, n1, n2)
	if err != nil {
		return res, err
	}

	if err := c.Barrier(); err != nil {
		return res, err
	}
	res.Seconds = c.Time() - t0
	res.GFlops = fft.Flops(n) / res.Seconds / 1e9

	if cfg.Verify {
		maxErr, err := verifyFFT(c, input, out, n1, n2)
		if err != nil {
			return res, err
		}
		res.MaxErr = maxErr
	}
	return res, nil
}

// fftRows transforms each length-rowLen row of m in place.
func fftRows(m []complex128, rowLen int) error {
	for r := 0; r+rowLen <= len(m); r += rowLen {
		if err := fft.Forward(m[r : r+rowLen]); err != nil {
			return err
		}
	}
	return nil
}

// distTranspose globally transposes an R x C row-major matrix
// distributed by rows (R/p rows per rank) into a C x R matrix
// distributed by rows (C/p per rank), using one all-to-all.
func distTranspose(c *mp.Comm, local []complex128, r, cols int) ([]complex128, error) {
	p := c.Size()
	myR := r / p
	myC := cols / p
	if len(local) != myR*cols {
		return nil, fmt.Errorf("hpcc: transpose local size %d, want %d", len(local), myR*cols)
	}
	blockWords := myR * myC
	sendBuf := make([]complex128, myR*cols)
	recvBuf := make([]complex128, cols/p*r)
	// Pack: destination d receives my rows x its column range.
	for d := 0; d < p; d++ {
		dst := sendBuf[d*blockWords : (d+1)*blockWords]
		c0 := d * myC
		for i := 0; i < myR; i++ {
			copy(dst[i*myC:(i+1)*myC], local[i*cols+c0:i*cols+c0+myC])
		}
	}
	if err := c.Alltoall(bytesview.C128(sendBuf), bytesview.C128(recvBuf)); err != nil {
		return nil, err
	}
	// Unpack with local transpose: block from rank s holds
	// orig(rows of s, my cols); transposed it lands at my rows (the
	// original columns) x column range of s.
	out := make([]complex128, myC*r)
	for s := 0; s < p; s++ {
		blk := recvBuf[s*blockWords : (s+1)*blockWords]
		c0 := s * myR
		for i := 0; i < myR; i++ { // i: row within block (src row)
			for j := 0; j < myC; j++ { // j: my output row
				out[j*r+c0+i] = blk[i*myC+j]
			}
		}
	}
	return out, nil
}

// verifyFFT gathers input and output to rank 0, runs the serial FFT on
// the input and returns the max elementwise error (broadcast to all).
func verifyFFT(c *mp.Comm, input, output []complex128, n1, n2 int) (float64, error) {
	n := n1 * n2
	fullIn := make([]complex128, n)
	fullOut := make([]complex128, n)
	if err := c.Allgather(bytesview.C128(input), bytesview.C128(fullIn)); err != nil {
		return 0, err
	}
	if err := c.Allgather(bytesview.C128(output), bytesview.C128(fullOut)); err != nil {
		return 0, err
	}
	want := append([]complex128(nil), fullIn...)
	if err := fft.Forward(want); err != nil {
		return 0, err
	}
	var maxErr float64
	for i := range want {
		if d := cmplx.Abs(fullOut[i] - want[i]); d > maxErr {
			maxErr = d
		}
	}
	return maxErr, nil
}

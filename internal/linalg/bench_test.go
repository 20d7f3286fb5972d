package linalg

import (
	"fmt"
	"testing"
)

// BenchmarkGemm measures the blocked DGEMM kernel.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := New(n, n)
			y := New(n, n)
			z := New(n, n)
			x.FillRandom(1)
			y.FillRandom(2)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Gemm(1, x, y, 0, z, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLUBlockSize ablates the HPL panel width (the NB design
// choice called out in DESIGN.md).
func BenchmarkLUBlockSize(b *testing.B) {
	const n = 256
	for _, nb := range []int{8, 32, 64, 128} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := New(n, n)
				a.FillRandom(uint64(i))
				piv := make([]int, n)
				b.StartTimer()
				if err := Getrf(a, piv, nb, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

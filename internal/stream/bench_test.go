package stream

import "testing"

// BenchmarkStreamTriad measures the real host Triad bandwidth.
func BenchmarkStreamTriad(b *testing.B) {
	const n = 1 << 20
	res, err := Run(Config{N: n, NTimes: 3, Threads: 0, FirstTouch: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.SetBytes(24 * n)
	cfg := Config{N: n, NTimes: 1, Threads: 0, FirstTouch: true}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

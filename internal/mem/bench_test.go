package mem

import (
	"fmt"
	"testing"
)

// BenchmarkPointerChase measures the raw dependent-load latency kernel
// at an in-cache and an out-of-cache working set.
func BenchmarkPointerChase(b *testing.B) {
	for _, size := range []int{32 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("ws=%d", size), func(b *testing.B) {
			res, err := Chase(ChaseConfig{Bytes: size, Iters: b.N, Trials: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Seconds*1e9, "ns/access")
		})
	}
}

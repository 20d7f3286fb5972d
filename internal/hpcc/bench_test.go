package hpcc

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

// BenchmarkHPLSim measures a full simulated HPL factorization.
func BenchmarkHPLSim(b *testing.B) {
	m := cluster.IBCluster()
	for i := 0; i < b.N; i++ {
		err := mp.Run(4, mp.Config{Fabric: mp.Sim, Model: m}, func(c *mp.Comm) error {
			_, err := HPL(c, HPLConfig{
				N: 128, NB: 32, Seed: uint64(i), ComputeRate: m.FlopsPerCore, SkipCheck: true,
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

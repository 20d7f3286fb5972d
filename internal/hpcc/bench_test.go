package hpcc

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mp"
)

// BenchmarkHPLSim measures a simulated HPL run as the experiments make
// it: with SkipCheck, so the panel loop moves sizes and charges flop
// counts but factors nothing.
func BenchmarkHPLSim(b *testing.B) {
	m := cluster.Preset("ib-8n")
	for i := 0; i < b.N; i++ {
		err := mp.Run(4, mp.Config{Model: m}, func(c *mp.Comm) error {
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

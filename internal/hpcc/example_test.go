package hpcc_test

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hpcc"
	"repro/internal/mp"
)

// RandomAccess end to end on the ib-8n model with full verification:
// the update stream is re-applied (XOR is an involution), so a correct
// run restores the table exactly. The LFSR stream, bucketed exchange
// and remote updates all run for real; only the reported time is
// virtual, with local updates charged at experiment F9's rate.
func ExampleRandomAccess() {
	const ranks = 4
	const bits = 16 // 64 Ki words -> 256 Ki updates

	err := mp.Run(ranks, mp.Config{Model: cluster.IBCluster()}, func(c *mp.Comm) error {
		res, err := hpcc.RandomAccess(c, hpcc.GUPSConfig{
			TableBits:   bits,
			Verify:      true,
			Chunk:       4096,
			ComputeRate: 2e8,
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("table        : 2^%d = %d words\n", bits, res.TableWords)
			fmt.Printf("updates      : %d\n", res.Updates)
			fmt.Printf("time         : %.4f s\n", res.Seconds)
			fmt.Printf("rate         : %.6f GUPS\n", res.GUPS)
			fmt.Printf("verify errors: %d\n", res.Errors)
			if res.Errors != 0 {
				return fmt.Errorf("verification failed")
			}
			fmt.Println("verification PASSED (second pass restored the table)")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// table        : 2^16 = 65536 words
	// updates      : 262144
	// time         : 0.0008 s
	// rate         : 0.319161 GUPS
	// verify errors: 0
	// verification PASSED (second pass restored the table)
}

package hpcc

import (
	"fmt"

	"repro/internal/bytesview"
	"repro/internal/fft"
	"repro/internal/mp"
	"repro/internal/rng"
)

// GUPSConfig configures the RandomAccess benchmark.
type GUPSConfig struct {
	// TableBits sets the global table to 1<<TableBits uint64 words.
	TableBits int
	// UpdatesPerWord is the update multiple (HPCC uses 4).
	UpdatesPerWord int
	// Chunk is the number of updates each rank generates per exchange
	// round (default 4096). Larger chunks amortize message overhead —
	// exactly the bucket-size trade-off the real benchmark has.
	Chunk int
	// Verify re-applies the full update stream (XOR is an involution)
	// and counts table words that fail to return to their initial
	// value; HPCC tolerates <1%, this implementation must produce 0.
	Verify bool
	// ComputeRate, if positive, charges virtual time per table update
	// on the Sim fabric.
	ComputeRate float64
}

// GUPSResult reports one RandomAccess run.
type GUPSResult struct {
	TableWords int64
	Updates    int64
	Seconds    float64
	GUPS       float64 // giga-updates per second
	Errors     int64   // verification mismatches (-1 when not verified)
}

// RandomAccess runs the HPCC RandomAccess benchmark: a table of
// 1<<TableBits words distributed evenly over the ranks, updated at
// positions drawn from the HPCC LFSR stream. Remote updates are
// bucketed per destination and exchanged in rounds. The rank count must
// be a power of two dividing the table size.
func RandomAccess(c *mp.Comm, cfg GUPSConfig) (GUPSResult, error) {
	p := c.Size()
	if !fft.IsPow2(p) {
		return GUPSResult{}, fmt.Errorf("hpcc: RandomAccess needs power-of-two ranks, got %d", p)
	}
	if cfg.TableBits < 1 || cfg.TableBits > 40 {
		return GUPSResult{}, fmt.Errorf("hpcc: TableBits %d out of range", cfg.TableBits)
	}
	tableWords := int64(1) << cfg.TableBits
	if int64(p) > tableWords {
		return GUPSResult{}, fmt.Errorf("hpcc: more ranks (%d) than table words (%d)", p, tableWords)
	}
	upw := cfg.UpdatesPerWord
	if upw <= 0 {
		upw = 4
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = 4096
	}

	perRank := tableWords / int64(p)
	base := int64(c.Rank()) * perRank
	table := make([]uint64, perRank)
	for i := range table {
		table[i] = uint64(base + int64(i)) // HPCC initial contents
	}

	totalUpdates := int64(upw) * tableWords
	myUpdates := totalUpdates / int64(p)
	res := GUPSResult{TableWords: tableWords, Updates: totalUpdates, Errors: -1}

	if err := c.Barrier(); err != nil {
		return res, err
	}
	t0 := c.Time()
	if err := gupsPass(c, cfg, table, base, perRank, myUpdates, chunk); err != nil {
		return res, err
	}
	if err := c.Barrier(); err != nil {
		return res, err
	}
	res.Seconds = c.Time() - t0
	res.GUPS = float64(totalUpdates) / res.Seconds / 1e9

	if cfg.Verify {
		if err := gupsPass(c, cfg, table, base, perRank, myUpdates, chunk); err != nil {
			return res, err
		}
		var bad float64
		for i := range table {
			if table[i] != uint64(base+int64(i)) {
				bad++
			}
		}
		total, err := c.AllreduceScalar(mp.OpSum, bad)
		if err != nil {
			return res, err
		}
		res.Errors = int64(total)
	}
	return res, nil
}

// gupsPass applies this rank's slice of the global update stream once.
func gupsPass(c *mp.Comm, cfg GUPSConfig, table []uint64, base, perRank, myUpdates int64, chunk int) error {
	p := c.Size()
	mask := uint64(int64(len(table))*int64(p) - 1)
	stream := rng.NewGUPSStream(myUpdates * int64(c.Rank()))
	buckets := make([][]uint64, p)
	for i := range buckets {
		buckets[i] = make([]uint64, 0, chunk)
	}
	apply := func(v uint64) {
		idx := int64(v&mask) - base
		table[idx] ^= v
	}

	done := int64(0)
	const tag = 7200
	rbuf := make([]uint64, chunk)
	counts := make([]float64, 1)
	for {
		// Generate one chunk and bucket by owner.
		gen := int64(chunk)
		if remaining := myUpdates - done; remaining < gen {
			gen = remaining
		}
		for i := int64(0); i < gen; i++ {
			v := stream.Next()
			owner := int((int64(v&mask) / perRank))
			if owner == c.Rank() {
				apply(v)
			} else {
				buckets[owner] = append(buckets[owner], v)
			}
		}
		done += gen
		charge(c, cfg.ComputeRate, float64(gen))

		// Every rank participates in every round until all ranks are
		// done; a rank with no work still exchanges (possibly empty)
		// buckets, keeping the rounds aligned.
		remainingAll, err := c.AllreduceScalar(mp.OpMax, float64(myUpdates-done))
		if err != nil {
			return err
		}

		// Rotation exchange: in step i, send bucket to rank+i, receive
		// from rank-i. Counts go first so the receive size is known.
		for i := 1; i < p; i++ {
			dst := (c.Rank() + i) % p
			src := (c.Rank() - i + p) % p
			counts[0] = float64(len(buckets[dst]))
			var in [1]float64
			if _, err := c.SendRecv(dst, tag, bytesview.F64(counts), src, tag, bytesview.F64(in[:])); err != nil {
				return err
			}
			nIn := int(in[0])
			if cap(rbuf) < nIn {
				rbuf = make([]uint64, nIn)
			}
			rb := rbuf[:nIn]
			if _, err := c.SendRecv(dst, tag+1, bytesview.U64(buckets[dst]), src, tag+1, bytesview.U64(rb)); err != nil {
				return err
			}
			for _, v := range rb {
				apply(v)
			}
			charge(c, cfg.ComputeRate, float64(nIn))
			buckets[dst] = buckets[dst][:0]
		}

		if remainingAll <= 0 {
			return nil
		}
	}
}

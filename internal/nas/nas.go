// Package nas reimplements two NAS-Parallel-Benchmark-style kernels as
// additional application workloads for the characterization:
//
//   - EP (Embarrassingly Parallel): per-rank Gaussian deviate generation
//     via the Marsaglia polar method with a deterministic per-rank
//     stream, combined only by a final reduction. It bounds the
//     platform's compute-only scaling (no communication in the loop).
//   - IS (Integer Sort): a distributed bucket sort of uniformly
//     distributed integer keys, whose single Alltoallv redistribution is
//     the classic bisection-bandwidth stressor at the application level.
package nas

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bytesview"
	"repro/internal/mp"
	"repro/internal/rng"
)

// EPConfig configures the embarrassingly parallel kernel.
type EPConfig struct {
	// PairsPerRank is the number of uniform pairs each rank draws.
	PairsPerRank int
	// Seed selects the deterministic streams (rank-jumped).
	Seed uint64
	// ComputeRate, if positive, charges virtual time per pair on the
	// Sim fabric.
	ComputeRate float64
	// Verify draws the pairs and reports their statistics. Without it
	// the pair loop does not run: its charge is PairsPerRank/ComputeRate
	// whatever the draws, so Seconds and MopsPerS are unchanged, and
	// Accepted, SumX, SumY and Counts are zero.
	Verify bool
}

// EPResult reports the EP kernel.
type EPResult struct {
	Pairs    int64   // total pairs across ranks
	Accepted int64   // pairs inside the unit circle
	SumX     float64 // sum of Gaussian X deviates
	SumY     float64 // sum of Gaussian Y deviates
	Counts   [10]int64
	Seconds  float64
	MopsPerS float64 // millions of pairs per second
}

// EP runs the kernel: each rank draws PairsPerRank uniform pairs from
// an independent stream, converts accepted pairs to Gaussian deviates
// (Marsaglia polar), tallies ring counts, and the results are combined
// with reductions. The draws run under cfg.Verify only; the charge and
// the reduction run either way.
func EP(c *mp.Comm, cfg EPConfig) (EPResult, error) {
	if cfg.PairsPerRank <= 0 {
		return EPResult{}, fmt.Errorf("nas: EP pairs %d", cfg.PairsPerRank)
	}

	if err := c.Barrier(); err != nil {
		return EPResult{}, err
	}
	t0 := c.Time()

	var accepted int64
	var sx, sy float64
	var counts [10]int64
	if cfg.Verify {
		gen := rng.NewXoshiro256ss(cfg.Seed)
		for i := 0; i < c.Rank(); i++ {
			gen.Jump()
		}
		for i := 0; i < cfg.PairsPerRank; i++ {
			u := 2*gen.Float64() - 1
			v := 2*gen.Float64() - 1
			s := u*u + v*v
			if s >= 1 || s == 0 {
				continue
			}
			accepted++
			f := math.Sqrt(-2 * math.Log(s) / s)
			x := u * f
			y := v * f
			sx += x
			sy += y
			ring := int(math.Max(math.Abs(x), math.Abs(y)))
			if ring > 9 {
				ring = 9
			}
			counts[ring]++
		}
	}
	if cfg.ComputeRate > 0 {
		c.Compute(float64(cfg.PairsPerRank) / cfg.ComputeRate)
	}

	// Combine: one small allreduce, as in NAS EP.
	local := make([]float64, 13)
	local[0] = float64(accepted)
	local[1] = sx
	local[2] = sy
	for i := 0; i < 10; i++ {
		local[3+i] = float64(counts[i])
	}
	global := make([]float64, 13)
	if err := c.Allreduce(mp.OpSum, local, global); err != nil {
		return EPResult{}, err
	}
	elapsed := c.Time() - t0

	res := EPResult{
		Pairs:    int64(cfg.PairsPerRank) * int64(c.Size()),
		Accepted: int64(global[0]),
		SumX:     global[1],
		SumY:     global[2],
		Seconds:  elapsed,
	}
	for i := 0; i < 10; i++ {
		res.Counts[i] = int64(global[3+i])
	}
	if elapsed > 0 {
		res.MopsPerS = float64(res.Pairs) / elapsed / 1e6
	}
	return res, nil
}

// ISConfig configures the integer sort kernel.
type ISConfig struct {
	// KeysPerRank is the number of keys each rank contributes.
	KeysPerRank int
	// MaxKey bounds key values in [0, MaxKey).
	MaxKey int
	// Seed selects the deterministic key streams.
	Seed uint64
	// Verify sorts the keys and checks global sortedness and key
	// conservation. Without it the keys are drawn only to count them
	// per destination: the count Alltoall still runs, since receivers
	// size from it, and the key Alltoallv runs size-only
	// (mp.Comm.SizeOnly), with the same sizes and so the same Seconds
	// and MKeysPerS.
	Verify bool
}

// ISResult reports the integer sort.
type ISResult struct {
	TotalKeys int64
	Seconds   float64
	MKeysPerS float64
	SortedOK  bool // verification outcome (true when skipped)
}

// IS runs a distributed bucket sort: keys are generated uniformly,
// bucketed by destination rank (key range partition), and redistributed
// with one Alltoallv. The benchmark metric is keys/second through the
// redistribution. Packing the keys and the local sort of each rank's
// received range charge no virtual time and only the verification reads
// them, so they run under cfg.Verify; the redistribution's virtual time
// is a function of the per-destination counts alone.
func IS(c *mp.Comm, cfg ISConfig) (ISResult, error) {
	p := c.Size()
	if cfg.KeysPerRank <= 0 || cfg.MaxKey <= 0 {
		return ISResult{}, fmt.Errorf("nas: IS config %+v", cfg)
	}
	if cfg.MaxKey < p {
		return ISResult{}, fmt.Errorf("nas: MaxKey %d < ranks %d", cfg.MaxKey, p)
	}
	// Destination: rank owning the key's range slice.
	rangePer := (cfg.MaxKey + p - 1) / p
	owner := func(k uint64) int {
		d := int(k) / rangePer
		if d >= p {
			d = p - 1
		}
		return d
	}

	// Draw the keys and count them per destination; keep them only for
	// the sort that Verify checks. Neither charges virtual time.
	gen := rng.NewXoshiro256ss(cfg.Seed)
	for i := 0; i < c.Rank(); i++ {
		gen.Jump()
	}
	var keys []uint64
	if cfg.Verify {
		keys = make([]uint64, cfg.KeysPerRank)
	}
	sendCounts := make([]int, p)
	for i := 0; i < cfg.KeysPerRank; i++ {
		k := gen.Uint64() % uint64(cfg.MaxKey)
		sendCounts[owner(k)]++
		if keys != nil {
			keys[i] = k
		}
	}

	if err := c.Barrier(); err != nil {
		return ISResult{}, err
	}
	t0 := c.Time()

	// Exchange counts (as an alltoall of 8-byte blocks), then keys.
	sendCountBuf := make([]uint64, p)
	recvCountBuf := make([]uint64, p)
	for i, n := range sendCounts {
		sendCountBuf[i] = uint64(n)
	}
	if err := c.Alltoall(bytesview.U64(sendCountBuf), bytesview.U64(recvCountBuf)); err != nil {
		return ISResult{}, err
	}
	sendBytes := make([]int, p)
	recvBytes := make([]int, p)
	total := 0
	for i, n := range recvCountBuf {
		sendBytes[i] = sendCounts[i] * 8
		recvBytes[i] = int(n) * 8
		total += int(n)
	}
	var recvKeys []uint64
	if cfg.Verify {
		recvKeys = make([]uint64, total)
		if err := c.Alltoallv(bytesview.U64(bucket(keys, sendCounts, owner)), sendBytes, bytesview.U64(recvKeys), recvBytes); err != nil {
			return ISResult{}, err
		}
	} else {
		sendBuf := mp.SizeOnlyBuf[byte](8 * cfg.KeysPerRank)
		recvBuf := mp.SizeOnlyBuf[byte](8 * total)
		if err := c.SizeOnly(func() error { return c.Alltoallv(sendBuf, sendBytes, recvBuf, recvBytes) }); err != nil {
			return ISResult{}, err
		}
	}

	if err := c.Barrier(); err != nil {
		return ISResult{}, err
	}
	elapsed := c.Time() - t0

	res := ISResult{
		TotalKeys: int64(cfg.KeysPerRank) * int64(p),
		Seconds:   elapsed,
		SortedOK:  true,
	}
	if elapsed > 0 {
		res.MKeysPerS = float64(res.TotalKeys) / elapsed / 1e6
	}

	if cfg.Verify {
		slices.Sort(recvKeys)
		ok, err := verifyIS(c, recvKeys, rangePer, int64(cfg.KeysPerRank)*int64(p))
		if err != nil {
			return res, err
		}
		res.SortedOK = ok
	}
	return res, nil
}

// bucket packs keys by destination rank, stably: destination d's
// counts[d] keys in input order, destinations in rank order.
func bucket(keys []uint64, counts []int, owner func(uint64) int) []uint64 {
	pos := make([]int, len(counts))
	for d := 1; d < len(counts); d++ {
		pos[d] = pos[d-1] + counts[d-1]
	}
	packed := make([]uint64, len(keys))
	for _, k := range keys {
		d := owner(k)
		packed[pos[d]] = k
		pos[d]++
	}
	return packed
}

// verifyIS checks three global invariants: each rank's keys lie in its
// range slice and are locally sorted; boundary order holds between
// neighbouring ranks; and the global key count is conserved.
func verifyIS(c *mp.Comm, keys []uint64, rangePer int, wantTotal int64) (bool, error) {
	ok := 1.0
	lo := uint64(c.Rank() * rangePer)
	var hi uint64
	if c.Rank() == c.Size()-1 {
		hi = math.MaxUint64
	} else {
		hi = uint64((c.Rank() + 1) * rangePer)
	}
	for i, k := range keys {
		if k < lo || k >= hi {
			ok = 0
		}
		if i > 0 && keys[i-1] > k {
			ok = 0
		}
	}
	count, err := c.AllreduceScalar(mp.OpSum, float64(len(keys)))
	if err != nil {
		return false, err
	}
	if int64(count) != wantTotal {
		ok = 0
	}
	allOK, err := c.AllreduceScalar(mp.OpMin, ok)
	if err != nil {
		return false, err
	}
	return allOK == 1, nil
}

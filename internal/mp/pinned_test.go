package mp

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The scripted exchanges below pin what the Sim fabric *models*: each
// rank's final virtual clock and its protocol counters. The constants
// were last captured when egress lanes and request-timed rendezvous
// replaced the locked per-node NIC, so a change to how the host moves
// bytes (buffers, copies, scratch reuse) that leaks into virtual time or
// OpStats fails here.
//
// MatchPosted/MatchUnexp individually depend on wall-clock arrival
// order, so only their sum is pinned. Virtual time does not:
// TestSimScheduleIndependent checks that under a perturbed scheduler.

type pinnedRank struct {
	Time  float64
	Stats OpStats // MatchPosted holds MatchPosted+MatchUnexp; MatchUnexp is 0
}

func runPinned(t *testing.T, n int, cfg Config, script func(c *Comm) error) []pinnedRank {
	t.Helper()
	got := make([]pinnedRank, n) // each rank writes its own slot
	err := Run(n, cfg, func(c *Comm) error {
		if err := script(c); err != nil {
			return err
		}
		s := c.Stats()
		s.MatchPosted += s.MatchUnexp
		s.MatchUnexp = 0
		got[c.Rank()] = pinnedRank{Time: c.Time(), Stats: s}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkPinned(t *testing.T, got, want []pinnedRank) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if same {
		return
	}
	var b strings.Builder
	for _, r := range got {
		s := r.Stats
		fmt.Fprintf(&b, "\t{%v, OpStats{SendsEager: %d, SendsRndv: %d, Recvs: %d, BytesSent: %d, BytesRecv: %d, MatchPosted: %d, Collectives: %d}},\n",
			r.Time, s.SendsEager, s.SendsRndv, s.Recvs, s.BytesSent, s.BytesRecv, s.MatchPosted, s.Collectives)
	}
	t.Fatalf("virtual time / OpStats moved; got:\n%s", b.String())
}

// pinnedPair is the 2-rank script: ping-pongs across the eager
// threshold, a one-way window of nonblocking sends (the osu.Bandwidth
// shape), a zero-length message and a modelled compute phase.
func pinnedPair(c *Comm) error {
	me, peer := c.Rank(), 1-c.Rank()
	buf := make([]byte, 1<<20)
	for _, size := range []int{0, 8, 8192, 8193, 65536, 1 << 20} {
		for i := 0; i < 3; i++ {
			if me == 0 {
				if err := c.Send(peer, 1, buf[:size]); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 1, buf[:size]); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(peer, 1, buf[:size]); err != nil {
					return err
				}
				if err := c.Send(peer, 1, buf[:size]); err != nil {
					return err
				}
			}
		}
	}
	c.Compute(1e-6 * float64(me+1))
	for _, size := range []int{1024, 32768} {
		reqs := make([]*Request, 8)
		for w := range reqs {
			var err error
			if me == 0 {
				reqs[w], err = c.Isend(peer, 2, buf[:size])
			} else {
				reqs[w], err = c.Irecv(peer, 2, buf[:size])
			}
			if err != nil {
				return err
			}
		}
		if err := c.WaitAll(reqs...); err != nil {
			return err
		}
		ack := make([]byte, 4)
		if me == 0 {
			if _, err := c.Recv(peer, 3, ack); err != nil {
				return err
			}
		} else if err := c.Send(peer, 3, ack); err != nil {
			return err
		}
	}
	return nil
}

// pinnedEight is the 8-rank script: a barrier, binomial broadcasts on
// both sides of the eager threshold, allreduces (recursive doubling at
// 64 elements, Rabenseifner with rendezvous rounds at 4 096), per-rank
// compute, a parity-ordered eager ring shift, a rendezvous SendRecv
// ring and a 1 MiB rendezvous relay down the rank chain. It checks the
// reductions' values unless it runs size-only.
func pinnedEight(c *Comm) error {
	me, p := c.Rank(), c.Size()
	if err := c.Barrier(); err != nil {
		return err
	}
	for _, b := range []struct{ root, size int }{{0, 1024}, {3, 16384}} {
		if err := c.Bcast(b.root, make([]byte, b.size)); err != nil {
			return err
		}
	}
	for _, n := range []int{64, 4096} {
		in, out := make([]float64, n), make([]float64, n)
		in[0] = float64(me)
		if err := c.Allreduce(OpSum, in, out); err != nil {
			return err
		}
		if !c.sizeOnly && out[0] != float64(p*(p-1)/2) {
			return fmt.Errorf("allreduce n=%d: out[0] = %v", n, out[0])
		}
	}
	c.Compute(1e-6 * float64(me))
	right, left := (me+1)%p, (me+p-1)%p
	ring := make([]byte, 16384)
	if _, err := c.SendRecv(right, 6, ring, left, 6, make([]byte, len(ring))); err != nil {
		return err
	}
	shift := make([]byte, 8192)
	if me%2 == 0 {
		if err := c.Send(right, 4, shift); err != nil {
			return err
		}
	}
	if _, err := c.Recv(left, 4, shift); err != nil {
		return err
	}
	if me%2 == 1 {
		if err := c.Send(right, 4, shift); err != nil {
			return err
		}
	}
	big := make([]byte, 1<<20)
	if me > 0 {
		if _, err := c.Recv(me-1, 5, big); err != nil {
			return err
		}
	}
	if me < p-1 {
		if err := c.Send(me+1, 5, big); err != nil {
			return err
		}
	}
	return nil
}

func TestSimVirtualTimePinned(t *testing.T) {
	t.Run("2ranks-intra-socket", func(t *testing.T) {
		checkPinned(t, runPinned(t, 2, Config{Model: cluster.Preset("ib-8n")}, pinnedPair), pinnedPairWant)
	})
	t.Run("8ranks-inter-node", func(t *testing.T) {
		m := cluster.Preset("ib-8n")
		m.Placement = cluster.Cyclic // one rank per node: every path crosses a NIC
		checkPinned(t, runPinned(t, 8, Config{Model: m}, pinnedEight), pinnedEightWant)
	})
}

// TestSimScheduleIndependent: every rank's virtual clock is a function
// of program order alone. A 16-rank script (pinnedEight plus a 64 KiB
// Alltoall), under block and cyclic placement, gives the same per-rank
// clocks and counters when a seeded hook yields or sleeps before random
// sends as when nothing perturbs the scheduler. On top of the 20
// perturbed byte-carrying repeats, 10 perturbed repeats run the script
// inside SizeOnly, which must reproduce the unperturbed byte-carrying
// run too. CI runs it under -race at GOMAXPROCS 1, 2 and 8.
func TestSimScheduleIndependent(t *testing.T) {
	const n, repeats, sizeOnlyRepeats = 16, 20, 10
	script := func(c *Comm) error {
		if err := pinnedEight(c); err != nil {
			return err
		}
		const block = 64 << 10
		return c.Alltoall(make([]byte, n*block), make([]byte, n*block))
	}
	sizeOnly := func(c *Comm) error { return c.SizeOnly(func() error { return script(c) }) }
	for _, pl := range []cluster.Placement{cluster.Block, cluster.Cyclic} {
		m := cluster.Preset("ib-8n")
		m.Placement = pl
		want := runPinned(t, n, Config{Model: m}, script)
		for rep := range repeats + sizeOnlyRepeats {
			rngs := make([]*rand.Rand, n) // one per rank: the hook runs on the sender's goroutine
			for r := range rngs {
				rngs[r] = rand.New(rand.NewPCG(uint64(rep), uint64(r)))
			}
			cfg := Config{Model: m, sendHook: func(rank int) error {
				switch rngs[rank].IntN(4) {
				case 0:
					runtime.Gosched()
				case 1:
					time.Sleep(time.Microsecond)
				}
				return nil
			}}
			run := script
			if rep >= repeats {
				run = sizeOnly
			}
			got := runPinned(t, n, cfg, run)
			for r := range got {
				if got[r] != want[r] {
					t.Fatalf("%v placement, repeat %d (size-only %v): rank %d got %+v, unperturbed %+v",
						pl, rep, rep >= repeats, r, got[r], want[r])
				}
			}
		}
	}
}

var pinnedPairWant = []pinnedRank{
	{0.0020851497848853448, OpStats{SendsEager: 17, SendsRndv: 17, Recvs: 20, BytesSent: 3661851, BytesRecv: 3391523, MatchPosted: 20, Collectives: 0}},
	{0.0020848993192240576, OpStats{SendsEager: 11, SendsRndv: 9, Recvs: 34, BytesSent: 3391523, BytesRecv: 3661851, MatchPosted: 34, Collectives: 0}},
}

var pinnedEightWant = []pinnedRank{
	{0.0008489701467183431, OpStats{SendsEager: 14, SendsRndv: 4, Recvs: 15, BytesSent: 1135104, BytesRecv: 99840, MatchPosted: 15, Collectives: 5}},
	{0.0015518208133850093, OpStats{SendsEager: 11, SendsRndv: 5, Recvs: 17, BytesSent: 1148416, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
	{0.002254671480051676, OpStats{SendsEager: 12, SendsRndv: 4, Recvs: 17, BytesSent: 1133056, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
	{0.002957522146718342, OpStats{SendsEager: 11, SendsRndv: 7, Recvs: 16, BytesSent: 1181184, BytesRecv: 1133056, MatchPosted: 16, Collectives: 5}},
	{0.003660372813385008, OpStats{SendsEager: 13, SendsRndv: 4, Recvs: 17, BytesSent: 1134080, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
	{0.004363223480051674, OpStats{SendsEager: 11, SendsRndv: 5, Recvs: 17, BytesSent: 1148416, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
	{0.0050660741467183435, OpStats{SendsEager: 12, SendsRndv: 4, Recvs: 17, BytesSent: 1133056, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
	{0.005067274146718344, OpStats{SendsEager: 11, SendsRndv: 5, Recvs: 17, BytesSent: 116224, BytesRecv: 1149440, MatchPosted: 17, Collectives: 5}},
}

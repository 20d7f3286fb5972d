package mp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The scripted exchanges below pin what the Sim fabric *models*: each
// rank's final virtual clock and its protocol counters. The constants
// were captured at the commit before the payload path was pooled, so a
// change to how the host moves bytes (buffers, copies, scratch reuse)
// that leaks into virtual time or OpStats fails here.
//
// The scripts use only patterns whose virtual time does not depend on
// goroutine scheduling: blocking operations with one receive posted at a
// time, or a window whose traffic all comes from one source, so clock
// charges happen in program order. (Multi-source posted receives and
// receive-before-send exchanges are scheduler-order dependent on Sim
// today; see ROADMAP "pure function of its key".) MatchPosted/MatchUnexp
// individually depend on wall-clock arrival order, so only their sum is
// pinned.

type pinnedRank struct {
	Time  float64
	Stats OpStats // MatchPosted holds MatchPosted+MatchUnexp; MatchUnexp is 0
}

func runPinned(t *testing.T, n int, model *cluster.Model, script func(c *Comm) error) []pinnedRank {
	t.Helper()
	got := make([]pinnedRank, n) // each rank writes its own slot
	err := Run(n, Config{Model: model}, func(c *Comm) error {
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

// pinnedEight is the 8-rank script: binomial broadcasts and reductions
// on both sides of the eager threshold, an eager scan, per-rank compute,
// a parity-ordered eager ring shift and a 1 MiB rendezvous relay down
// the rank chain. Barrier, Allreduce and SendRecv are left out on
// purpose: they post the receive before the send, so an early arrival
// is charged before or after the send depending on the scheduler.
func pinnedEight(c *Comm) error {
	me, p := c.Rank(), c.Size()
	for _, b := range []struct{ root, size int }{{0, 1024}, {3, 16384}} {
		if err := c.Bcast(b.root, make([]byte, b.size)); err != nil {
			return err
		}
	}
	for _, n := range []int{512, 4096} {
		in, out := make([]float64, n), make([]float64, n)
		for i := range in {
			in[i] = float64(me + i)
		}
		if err := c.Reduce(2, OpSum, in, out); err != nil {
			return err
		}
		if me == 2 && out[1] != float64(p*(p-1)/2+p) {
			return fmt.Errorf("reduce n=%d: out[1] = %v", n, out[1])
		}
	}
	in, out := make([]float64, 64), make([]float64, 64)
	in[0] = float64(me)
	if err := c.Scan(OpSum, in, out); err != nil {
		return err
	}
	if out[0] != float64(me*(me+1)/2) {
		return fmt.Errorf("scan = %v", out[0])
	}
	c.Compute(1e-6 * float64(me))
	right, left := (me+1)%p, (me+p-1)%p
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
		checkPinned(t, runPinned(t, 2, cluster.IBCluster(), pinnedPair), pinnedPairWant)
	})
	t.Run("8ranks-inter-node", func(t *testing.T) {
		m := cluster.IBCluster()
		m.Placement = cluster.Cyclic // one rank per node: every path crosses a NIC
		checkPinned(t, runPinned(t, 8, m, pinnedEight), pinnedEightWant)
	})
}

var pinnedPairWant = []pinnedRank{
	{0.0020892497848853412, OpStats{SendsEager: 17, SendsRndv: 17, Recvs: 20, BytesSent: 3661851, BytesRecv: 3391523, MatchPosted: 20, Collectives: 0}},
	{0.002088999319224054, OpStats{SendsEager: 11, SendsRndv: 9, Recvs: 34, BytesSent: 3391523, BytesRecv: 3661851, MatchPosted: 34, Collectives: 0}},
}

var pinnedEightWant = []pinnedRank{
	{0.0008616156352437337, OpStats{SendsEager: 8, SendsRndv: 2, Recvs: 4, BytesSent: 1098240, BytesRecv: 61440, MatchPosted: 4, Collectives: 5}},
	{0.0015645663019104, OpStats{SendsEager: 5, SendsRndv: 3, Recvs: 5, BytesSent: 1111552, BytesRecv: 1074688, MatchPosted: 5, Collectives: 5}},
	{0.002267516968577067, OpStats{SendsEager: 5, SendsRndv: 1, Recvs: 12, BytesSent: 1059328, BytesRecv: 1185792, MatchPosted: 12, Collectives: 5}},
	{0.0029704676352437327, OpStats{SendsEager: 5, SendsRndv: 5, Recvs: 5, BytesSent: 1144320, BytesRecv: 1058816, MatchPosted: 5, Collectives: 5}},
	{0.003673418301910398, OpStats{SendsEager: 6, SendsRndv: 2, Recvs: 9, BytesSent: 1096704, BytesRecv: 1112576, MatchPosted: 9, Collectives: 5}},
	{0.0043763689685770634, OpStats{SendsEager: 4, SendsRndv: 3, Recvs: 7, BytesSent: 1111040, BytesRecv: 1075712, MatchPosted: 7, Collectives: 5}},
	{0.005079319635243733, OpStats{SendsEager: 4, SendsRndv: 2, Recvs: 11, BytesSent: 1095168, BytesRecv: 1149440, MatchPosted: 11, Collectives: 5}},
	{0.005080519635243734, OpStats{SendsEager: 2, SendsRndv: 3, Recvs: 7, BytesSent: 77824, BytesRecv: 1075712, MatchPosted: 7, Collectives: 5}},
}

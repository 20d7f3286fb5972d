package mp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestRandomTrafficStress drives the matching engine with a randomized
// all-pairs schedule: every rank sends K messages to every peer with
// random sizes spanning the eager/rendezvous boundary and random posting
// order on the receiver (half posted before arrival, half after). The
// payload encodes (src, seq) so misrouted or reordered deliveries are
// detected.
func TestRandomTrafficStress(t *testing.T) {
	const (
		ranks       = 5
		perPeer     = 20
		eagerThresh = 512
	)
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{Model: testModel(), EagerThreshold: eagerThresh}
			err := Run(ranks, cfg, func(c *Comm) error {
				gen := rng.NewSplitMix64(seed) // same schedule on all ranks
				type msg struct{ size int }
				// schedule[src][dst][k] = message size; derived
				// identically on every rank from the shared stream.
				schedule := make([][][]int, ranks)
				for s := range schedule {
					schedule[s] = make([][]int, ranks)
					for d := range schedule[s] {
						if s == d {
							continue
						}
						sizes := make([]int, perPeer)
						for k := range sizes {
							sizes[k] = int(gen.Uint64() % (4 * eagerThresh))
						}
						schedule[s][d] = sizes
					}
				}

				me := c.Rank()
				// Pre-post half of the receives (even k) as Irecvs.
				type pending struct {
					req  *Request
					src  int
					k    int
					buf  []byte
					want int
				}
				var pre []pending
				for src := 0; src < ranks; src++ {
					if src == me {
						continue
					}
					for k := 0; k < perPeer; k += 2 {
						size := schedule[src][me][k]
						buf := make([]byte, size)
						req, err := c.Irecv(src, k, buf)
						if err != nil {
							return err
						}
						pre = append(pre, pending{req, src, k, buf, size})
					}
				}

				// Fire all sends (nonblocking): tag = message index.
				var sends []*Request
				for dst := 0; dst < ranks; dst++ {
					if dst == me {
						continue
					}
					for k := 0; k < perPeer; k++ {
						size := schedule[me][dst][k]
						payload := make([]byte, size)
						checksumFill(payload, me, k)
						req, err := c.Isend(dst, k, payload)
						if err != nil {
							return err
						}
						sends = append(sends, req)
					}
				}

				// Post the other half (odd k) late — these arrive
				// unexpected.
				for src := 0; src < ranks; src++ {
					if src == me {
						continue
					}
					for k := 1; k < perPeer; k += 2 {
						size := schedule[src][me][k]
						buf := make([]byte, size)
						st, err := c.Recv(src, k, buf)
						if err != nil {
							return err
						}
						if st.Count != size {
							return fmt.Errorf("src %d k %d: count %d want %d", src, k, st.Count, size)
						}
						if err := checksumVerify(buf, src, k); err != nil {
							return err
						}
					}
				}
				for _, p := range pre {
					st, err := p.req.Wait()
					if err != nil {
						return err
					}
					if st.Count != p.want {
						return fmt.Errorf("pre src %d k %d: count %d want %d", p.src, p.k, st.Count, p.want)
					}
					if err := checksumVerify(p.buf, p.src, p.k); err != nil {
						return err
					}
				}
				return c.WaitAll(sends...)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPooledPayloadStress is the safety test for the fabric's payload
// pool: a many-rank exchange whose every message is a checksum stream of
// (src, seq), with sizes on both sides of the eager threshold (several
// sharing a pool size class), receives posted before traffic, messages
// that wait in the unexpected queue while same-class buffers are
// released and reused around them, an eager send buffer reused the
// moment Isend returns, and truncated receives. A buffer recycled while
// something still reads it shows up as a checksum mismatch, or as a
// race under -race.
func TestPooledPayloadStress(t *testing.T) {
	const (
		ranks       = 12
		perPeer     = 12
		eagerThresh = 1024
		truncTag    = perPeer
	)
	sizes := []int{0, 1, 100, 600, eagerThresh - 1, eagerThresh, eagerThresh + 1, 1500, 5000, 70000}
	sizeOf := func(src, dst, k int) int { return sizes[(src*7+dst*3+k*5)%len(sizes)] }
	for _, fab := range []struct {
		name string
		cfg  Config
	}{
		{"sim", Config{Model: testModel(), EagerThreshold: eagerThresh}},
	} {
		t.Run(fab.name, func(t *testing.T) {
			err := Run(ranks, fab.cfg, func(c *Comm) error {
				me := c.Rank()
				// Even seqs: receives posted per source before any
				// traffic flows.
				type posted struct {
					req    *Request
					src, k int
					buf    []byte
				}
				var pre []posted
				for src := 0; src < ranks; src++ {
					for k := 0; k < perPeer && src != me; k += 2 {
						buf := make([]byte, sizeOf(src, me, k))
						req, err := c.Irecv(src, k, buf)
						if err != nil {
							return err
						}
						pre = append(pre, posted{req, src, k, buf})
					}
				}

				var sends []*Request
				eagerBuf := make([]byte, eagerThresh) // reused as soon as Isend returns
				for k := 0; k < perPeer; k++ {
					for dst := 0; dst < ranks; dst++ {
						if dst == me {
							continue
						}
						size := sizeOf(me, dst, k)
						payload := eagerBuf[:min(size, eagerThresh)]
						if size > eagerThresh {
							payload = make([]byte, size) // rendezvous: ours until Wait
						}
						checksumFill(payload, me, k)
						req, err := c.Isend(dst, k, payload)
						if err != nil {
							return err
						}
						sends = append(sends, req)
					}
				}

				// The barrier drives progress: odd seqs, which nobody
				// has posted a receive for, pile up as unexpected.
				if err := c.Barrier(); err != nil {
					return err
				}
				// Descending sources take each match from the middle
				// of the queue, not its head.
				recvBuf := make([]byte, sizes[len(sizes)-1])
				for k := 1; k < perPeer; k += 2 {
					for src := ranks - 1; src >= 0; src-- {
						if src == me {
							continue
						}
						st, err := c.Recv(src, k, recvBuf)
						if err != nil {
							return err
						}
						if want := sizeOf(src, me, k); st.Count != want {
							return fmt.Errorf("unexpected src %d k %d: count %d, want %d", src, k, st.Count, want)
						}
						if err := checksumVerify(recvBuf[:st.Count], src, k); err != nil {
							return err
						}
					}
				}
				for _, p := range pre {
					st, err := p.req.Wait()
					if err != nil {
						return err
					}
					if st.Count != len(p.buf) {
						return fmt.Errorf("posted src %d k %d: count %d, want %d", p.src, p.k, st.Count, len(p.buf))
					}
					if err := checksumVerify(p.buf, p.src, p.k); err != nil {
						return err
					}
				}
				if err := c.WaitAll(sends...); err != nil {
					return err
				}
				if c.Stats().MatchUnexp == 0 {
					return fmt.Errorf("rank %d: the unexpected queue was never hit", me)
				}

				// Truncated receives, eager then rendezvous: the prefix
				// is delivered intact and the buffer still goes back to
				// the pool, so a full-size exchange must work after it.
				right, left := (me+1)%ranks, (me+ranks-1)%ranks
				for round, size := range []int{600, 5000, 600, 5000} {
					payload := make([]byte, size)
					checksumFill(payload, me, truncTag+round)
					sreq, err := c.Isend(right, truncTag, payload)
					if err != nil {
						return err
					}
					want := size
					if round < 2 {
						want = 100
					}
					_, err = c.Recv(left, truncTag, recvBuf[:want])
					if truncated := want < size; truncated != errors.Is(err, ErrTruncated) || (!truncated && err != nil) {
						return fmt.Errorf("round %d: err = %v", round, err)
					}
					full := make([]byte, size)
					checksumFill(full, left, truncTag+round)
					if string(recvBuf[:want]) != string(full[:want]) {
						return fmt.Errorf("round %d: payload from %d corrupt", round, left)
					}
					if _, err := sreq.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checksumFill writes a pseudo-random stream keyed by (src, seq), so a
// payload that reaches the wrong receive, or is overwritten in flight,
// cannot verify by accident.
func checksumFill(buf []byte, src, seq int) {
	x := uint64(src)<<32 | uint64(seq)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

func checksumVerify(buf []byte, src, seq int) error {
	want := make([]byte, len(buf))
	checksumFill(want, src, seq)
	if string(buf) != string(want) {
		return fmt.Errorf("payload from %d seq %d (%d bytes) corrupt", src, seq, len(buf))
	}
	return nil
}

package mp

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bytesview"
)

// collCase is one collective invocation over caller-owned buffers: mk
// builds a rank's send and receive buffers, run invokes the collective
// on them. Receive buffers of float64 collectives are views of bytes.
type collCase struct {
	name string
	mk   func(c *Comm) (send, recv []byte)
	run  func(c *Comm, send, recv []byte) error
}

// vcounts is a per-rank byte count that differs across ranks and
// includes an empty contribution.
func vcounts(p, salt int) []int {
	counts := make([]int, p)
	for r := range counts {
		counts[r] = ((r + salt) % 3) * 40
	}
	return counts
}

func collCases() []collCase {
	f64 := func(n int) []byte { return bytesview.F64(make([]float64, n)) }
	asF64 := func(b []byte) []float64 {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
	}
	cases := []collCase{
		{"Bcast", func(c *Comm) ([]byte, []byte) { return nil, make([]byte, 96<<10) },
			func(c *Comm, _, recv []byte) error { return c.Bcast(1, recv) }},
		{"Allgather", func(c *Comm) ([]byte, []byte) { return make([]byte, 100), make([]byte, 100*c.Size()) },
			func(c *Comm, send, recv []byte) error { return c.Allgather(send, recv) }},
		{"Alltoall", func(c *Comm) ([]byte, []byte) {
			return make([]byte, 12<<10*c.Size()), make([]byte, 12<<10*c.Size())
		}, func(c *Comm, send, recv []byte) error { return c.Alltoall(send, recv) }},
		{"Allgatherv", func(c *Comm) ([]byte, []byte) {
			counts := vcounts(c.Size(), 0)
			total, _ := totalOf(counts)
			return make([]byte, counts[c.Rank()]), make([]byte, total)
		}, func(c *Comm, send, recv []byte) error { return c.Allgatherv(send, vcounts(c.Size(), 0), recv) }},
		{"Alltoallv", func(c *Comm) ([]byte, []byte) {
			// Rank r sends (r+d)%3*40 bytes to d, so d receives
			// (s+d)%3*40 from s: the count matrices agree.
			st, _ := totalOf(vcounts(c.Size(), c.Rank()))
			return make([]byte, st), make([]byte, st)
		}, func(c *Comm, send, recv []byte) error {
			counts := vcounts(c.Size(), c.Rank())
			return c.Alltoallv(send, counts, recv, counts)
		}},
	}
	for _, a := range []struct {
		name string
		algo AllreduceAlgo
	}{{"recdoubling", AllreduceRecursiveDoubling}, {"rabenseifner", AllreduceRabenseifner}, {"ring", AllreduceRing}} {
		cases = append(cases, collCase{"Allreduce/" + a.name,
			func(c *Comm) ([]byte, []byte) { return f64(4096), f64(4096) },
			func(c *Comm, send, recv []byte) error {
				c.cfg.Allreduce = a.algo
				return c.Allreduce(OpSum, asF64(send), asF64(recv))
			}})
	}
	return cases
}

// TestSizeOnlyCollectivesKeepBuffers: inside SizeOnly no collective
// writes a buffer it is handed, the rank's own block included, so a
// send buffer and a receive buffer both keep their sentinel bytes on
// every rank, at a power-of-two and at another world size.
func TestSizeOnlyCollectivesKeepBuffers(t *testing.T) {
	const sendMark, recvMark = 0x5A, 0xEE
	for _, p := range []int{3, 4} {
		for _, cc := range collCases() {
			t.Run(fmt.Sprintf("p=%d/%s", p, cc.name), func(t *testing.T) {
				err := Run(p, simCfg(), func(c *Comm) error {
					send, recv := cc.mk(c)
					for i := range send {
						send[i] = sendMark
					}
					for i := range recv {
						recv[i] = recvMark
					}
					if err := c.SizeOnly(func() error { return cc.run(c, send, recv) }); err != nil {
						return err
					}
					for _, b := range []struct {
						name string
						buf  []byte
						mark byte
					}{{"send", send, sendMark}, {"receive", recv, recvMark}} {
						for i, x := range b.buf {
							if x != b.mark {
								return fmt.Errorf("rank %d: %s buffer byte %d = %#x, want the sentinel %#x", c.Rank(), b.name, i, x, b.mark)
							}
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
}

// TestSizeOnlyBufSharedAcrossWorlds: two worlds run every collective at
// once, size-only, with all their buffers sliced from SizeOnlyBuf, and
// each rank's clock and counters match a run of the same collectives
// over private buffers that carry bytes. Under -race this also shows
// that nothing reads or writes the shared buffer.
func TestSizeOnlyBufSharedAcrossWorlds(t *testing.T) {
	const p = 5
	type world struct {
		got []pinnedRank
		err error
	}
	run := func(shared bool) world {
		w := world{got: make([]pinnedRank, p)}
		w.err = Run(p, simCfg(), func(c *Comm) error {
			body := func() error {
				for _, cc := range collCases() {
					send, recv := cc.mk(c)
					if shared {
						// Send and receive buffers overlap: both
						// are the same shared bytes.
						send, recv = SizeOnlyBuf[byte](len(send)), SizeOnlyBuf[byte](len(recv))
					}
					if err := cc.run(c, send, recv); err != nil {
						return fmt.Errorf("%s: %w", cc.name, err)
					}
				}
				return nil
			}
			var err error
			if shared {
				err = c.SizeOnly(body)
			} else {
				err = body()
			}
			w.got[c.Rank()] = pinnedRank{Time: c.Time(), Stats: c.Stats()}
			return err
		})
		for r := range w.got {
			w.got[r].Stats.MatchPosted += w.got[r].Stats.MatchUnexp
			w.got[r].Stats.MatchUnexp = 0
		}
		return w
	}
	want := run(false)
	if want.err != nil {
		t.Fatal(want.err)
	}
	var worlds [2]world
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worlds[i] = run(true)
		}()
	}
	wg.Wait()
	for i, w := range worlds {
		if w.err != nil {
			t.Fatalf("world %d: %v", i, w.err)
		}
		for r := range w.got {
			if w.got[r] != want.got[r] {
				t.Errorf("world %d rank %d: size-only over the shared buffer %+v, with bytes %+v", i, r, w.got[r], want.got[r])
			}
		}
	}
	a, b := SizeOnlyBuf[byte](16), SizeOnlyBuf[float64](2)
	if unsafe.Pointer(unsafe.SliceData(a)) != unsafe.Pointer(unsafe.SliceData(b)) || len(a) != 16 || len(b) != 2 {
		t.Errorf("SizeOnlyBuf: %d bytes at %p and %d float64s at %p, want one buffer", len(a), a, len(b), b)
	}
}

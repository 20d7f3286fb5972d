package mp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// testModel is the platform a test runs on unless it needs another:
// ib-8n, whose 64 cores give every rank count here a core of its own.
func testModel() *cluster.Model { return cluster.Preset("ib-8n") }

// configs returns the protocol configurations every semantic test runs
// under: correctness must not depend on the eager/rendezvous split.
func configs() map[string]Config {
	return map[string]Config{
		"sim":      {Model: cluster.Preset("ib-64n")},
		"sim-rndv": {Model: cluster.Preset("ib-64n"), EagerThreshold: -1},
	}
}

func TestRunInvalidSize(t *testing.T) {
	if err := Run(0, Config{Model: testModel()}, func(*Comm) error { return nil }); err != ErrInvalidSize {
		t.Errorf("Run(0) = %v, want ErrInvalidSize", err)
	}
}

func TestRunSingleRank(t *testing.T) {
	err := Run(1, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() != 0 || c.Size() != 1 {
			return fmt.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapping boom", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("worker exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestSendRecvBasic(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			err := Run(2, cfg, func(c *Comm) error {
				msg := []byte("the quick brown fox")
				if c.Rank() == 0 {
					return c.Send(1, 42, msg)
				}
				buf := make([]byte, len(msg))
				st, err := c.Recv(0, 42, buf)
				if err != nil {
					return err
				}
				if st.Count != len(msg) {
					return fmt.Errorf("status %+v", st)
				}
				if !bytes.Equal(buf, msg) {
					return fmt.Errorf("payload %q", buf)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendRecvSizesAcrossProtocols(t *testing.T) {
	// Sweep sizes across the eager threshold, including 0 and exactly
	// the threshold.
	cfg := Config{Model: testModel(), EagerThreshold: 1024}
	sizes := []int{0, 1, 7, 1023, 1024, 1025, 10000, 1 << 18}
	err := Run(2, cfg, func(c *Comm) error {
		for _, n := range sizes {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i % 251)
			}
			if c.Rank() == 0 {
				if err := c.Send(1, 5, msg); err != nil {
					return fmt.Errorf("size %d: %w", n, err)
				}
			} else {
				buf := make([]byte, n)
				st, err := c.Recv(0, 5, buf)
				if err != nil {
					return fmt.Errorf("size %d: %w", n, err)
				}
				if st.Count != n || !bytes.Equal(buf, msg) {
					return fmt.Errorf("size %d corrupted (count %d)", n, st.Count)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingPreserved(t *testing.T) {
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			const n = 200
			err := Run(2, cfg, func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, 1)
				for i := 0; i < n; i++ {
					if _, err := c.Recv(0, 1, buf); err != nil {
						return err
					}
					if buf[0] != byte(i) {
						return fmt.Errorf("message %d out of order: got %d", i, buf[0])
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

func TestTagMatching(t *testing.T) {
	// Messages with different tags must match the right receives even
	// when posted out of arrival order.
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			return c.Send(1, 20, []byte("twenty"))
		}
		// Receive tag 20 first although tag 10 arrived first.
		buf := make([]byte, 16)
		st, err := c.Recv(0, 20, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "twenty" {
			return fmt.Errorf("tag 20 got %q", buf[:st.Count])
		}
		st, err = c.Recv(0, 10, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "ten" {
			return fmt.Errorf("tag 10 got %q", buf[:st.Count])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTruncation(t *testing.T) {
	for _, thresh := range []int{0 /* default */, -1 /* rendezvous */} {
		cfg := Config{Model: testModel(), EagerThreshold: thresh}
		err := Run(2, cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, make([]byte, 100))
			}
			_, err := c.Recv(0, 1, make([]byte, 10))
			if !errors.Is(err, ErrTruncated) {
				return fmt.Errorf("thresh %d: err = %v, want ErrTruncated", thresh, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	// Both ranks Isend then Irecv then wait — the nonblocking engine
	// must make progress on both directions.
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			err := Run(2, cfg, func(c *Comm) error {
				peer := 1 - c.Rank()
				out := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 32768)
				in := make([]byte, len(out))
				sreq, err := c.Isend(peer, 9, out)
				if err != nil {
					return err
				}
				rreq, err := c.Irecv(peer, 9, in)
				if err != nil {
					return err
				}
				if err := c.WaitAll(sreq, rreq); err != nil {
					return err
				}
				for _, b := range in {
					if b != byte(peer+1) {
						return fmt.Errorf("corrupted exchange")
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

func TestSendRecvCombinedHeadToHead(t *testing.T) {
	// Head-to-head large exchange deadlocks with blocking Send;
	// SendRecv must not.
	cfg := Config{Model: testModel(), EagerThreshold: -1} // force rendezvous
	err := Run(2, cfg, func(c *Comm) error {
		peer := 1 - c.Rank()
		out := bytes.Repeat([]byte{byte(c.Rank())}, 1<<16)
		in := make([]byte, len(out))
		if _, err := c.SendRecv(peer, 3, out, peer, 3, in); err != nil {
			return err
		}
		if in[0] != byte(peer) {
			return fmt.Errorf("wrong data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeerAndTagValidation(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if err := c.Send(1, -3, nil); err == nil {
			return errors.New("negative user tag accepted")
		}
		if _, err := c.Irecv(7, 0, nil); err == nil {
			return errors.New("irecv from rank 7 accepted")
		}
		if _, err := c.Recv(-1, 0, nil); err == nil {
			return errors.New("recv from rank -1 accepted")
		}
		if _, err := c.Recv(0, -1, nil); err == nil {
			return errors.New("recv with negative user tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// A message that arrives before its receive is posted must be
	// buffered and matched later, in arrival order per envelope.
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, 7, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return c.Send(1, 8, []byte{99})
		}
		// Drain tag 8 first; the five tag-7 messages sit unexpected.
		buf := make([]byte, 1)
		if _, err := c.Recv(0, 8, buf); err != nil {
			return err
		}
		if buf[0] != 99 {
			return fmt.Errorf("tag 8 payload %d", buf[0])
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Recv(0, 7, buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("unexpected queue order: got %d want %d", buf[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimTimeAdvances(t *testing.T) {
	cfg := Config{Model: testModel()}
	err := Run(2, cfg, func(c *Comm) error {
		t0 := c.Time()
		peer := 1 - c.Rank()
		buf := make([]byte, 8)
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 1, buf); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(peer, 1, buf); err != nil {
					return err
				}
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
		}
		if c.Time() <= t0 {
			return fmt.Errorf("virtual clock stuck at %v", c.Time())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimComputeAdvancesClock(t *testing.T) {
	cfg := Config{Model: testModel()}
	err := Run(1, cfg, func(c *Comm) error {
		t0 := c.Time()
		c.Compute(1.5)
		if d := c.Time() - t0; d < 1.5 {
			return fmt.Errorf("Compute advanced %v, want >= 1.5", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSizeOnlyCarriesNoBytes: inside SizeOnly, at an eager and at a
// rendezvous size, a receive completes with the Status and error the
// same exchange has outside the region, but its buffer keeps its
// sentinel bytes; every rank's clock and OpStats match the byte-carrying
// run, and an Allreduce after the region is exact.
func TestSizeOnlyCarriesNoBytes(t *testing.T) {
	const sentinel = 0xEE
	for _, size := range []int{64, 64 << 10} { // eager, rendezvous
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			type recvd struct {
				st  [2]Status
				err [2]error
				buf [2][]byte
			}
			run := func(sizeOnly bool) (recvd, []pinnedRank) {
				var got recvd
				script := func(c *Comm) error {
					exchange := func() error {
						if c.Rank() == 0 {
							msg := bytes.Repeat([]byte{0x5A}, size)
							if err := c.Send(1, 1, msg); err != nil {
								return err
							}
							return c.Send(1, 2, msg)
						}
						// The second receive is too small for its message.
						for i, n := range []int{size, size / 2} {
							got.buf[i] = bytes.Repeat([]byte{sentinel}, n)
							got.st[i], got.err[i] = c.Recv(0, i+1, got.buf[i])
						}
						return nil
					}
					var err error
					if sizeOnly {
						err = c.SizeOnly(exchange)
					} else {
						err = exchange()
					}
					if err != nil {
						return err
					}
					in, out := []float64{float64(c.Rank() + 1), 0.5}, make([]float64, 2)
					if err := c.Allreduce(OpSum, in, out); err != nil {
						return err
					}
					if out[0] != 3 || out[1] != 1 {
						return fmt.Errorf("allreduce after the region = %v, want [3 1]", out)
					}
					return nil
				}
				return got, runPinned(t, 2, simCfg(), script)
			}
			full, fullRanks := run(false)
			sizes, sizeRanks := run(true)
			for i := range full.st {
				if sizes.st[i] != full.st[i] || sizes.err[i] != full.err[i] {
					t.Errorf("receive %d: size-only (%+v, %v), with bytes (%+v, %v)", i, sizes.st[i], sizes.err[i], full.st[i], full.err[i])
				}
				if !bytes.Equal(full.buf[i], bytes.Repeat([]byte{0x5A}, len(full.buf[i]))) {
					t.Errorf("receive %d outside the region did not get the payload", i)
				}
				if !bytes.Equal(sizes.buf[i], bytes.Repeat([]byte{sentinel}, len(sizes.buf[i]))) {
					t.Errorf("receive %d inside the region saw the sender's bytes", i)
				}
			}
			if full.err[0] != nil || full.st[0].Count != size || !errors.Is(full.err[1], ErrTruncated) {
				t.Errorf("byte-carrying run: %+v %v", full.st, full.err)
			}
			checkPinned(t, sizeRanks, fullRanks)
		})
	}
}

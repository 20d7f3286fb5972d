package mp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// errInjected is the error a faulty config's failing rank sends get.
var errInjected = errors.New("injected fault")

// faultyConfig builds a config whose rank failRank starts failing every
// send after it has issued budget packets; the other ranks are healthy.
func faultyConfig(failRank int, budget int64) Config {
	var left atomic.Int64
	left.Store(budget)
	return Config{Model: testModel(), sendHook: func(rank int) error {
		if rank == failRank && left.Add(-1) < 0 {
			return errInjected
		}
		return nil
	}}
}

// runWithTimeout fails the test if Run hangs: fault handling must abort
// the job, never deadlock it.
func runWithTimeout(t *testing.T, n int, cfg Config, f func(*Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, cfg, f) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after injected fault")
		return nil
	}
}

func TestFaultImmediateSendFails(t *testing.T) {
	cfg := faultyConfig(0, 0) // rank 0 cannot send at all
	got := runWithTimeout(t, 2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("x"))
		}
		_, err := c.Recv(0, 1, make([]byte, 1))
		return err
	})
	if !errors.Is(got, errInjected) {
		t.Errorf("err = %v, want ErrInjected", got)
	}
}

func TestFaultMidCollectiveAborts(t *testing.T) {
	// Rank 2's NIC dies partway through a barrier storm; every rank
	// must come back with an error, promptly.
	cfg := faultyConfig(2, 10)
	got := runWithTimeout(t, 4, cfg, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if got == nil {
		t.Fatal("fault swallowed: Run returned nil")
	}
	if !errors.Is(got, errInjected) {
		t.Errorf("root cause missing: %v", got)
	}
}

func TestFaultDuringRendezvous(t *testing.T) {
	// The sender's RTS goes out, then its data send fails at CTS time:
	// the blocked receiver must be released by the abort.
	cfg := faultyConfig(0, 1)
	cfg.EagerThreshold = -1 // all rendezvous
	got := runWithTimeout(t, 2, cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send 1: the RTS (allowed). Send 2 would be RndvData
			// (fails).
			return c.Send(1, 1, make([]byte, 1000))
		}
		_, err := c.Recv(0, 1, make([]byte, 1000))
		return err
	})
	if got == nil {
		t.Fatal("rendezvous fault swallowed")
	}
}

func TestFaultErrorIsPrimaryNotErrClosed(t *testing.T) {
	// The joined error must surface the injected fault, with the
	// secondary ErrClosed aborts suppressed.
	cfg := faultyConfig(1, 0)
	got := runWithTimeout(t, 3, cfg, func(c *Comm) error {
		return c.Barrier()
	})
	if got == nil {
		t.Fatal("no error")
	}
	if errors.Is(got, ErrClosed) {
		t.Errorf("secondary ErrClosed not suppressed: %v", got)
	}
}

func TestHealthyRunUnaffectedByAbortPath(t *testing.T) {
	// A run where one rank returns an application error (no injected
	// fault) must abort cleanly too, and report that error alone: every
	// failure the abort causes in the other ranks is secondary.
	boom := errors.New("application failure")
	for _, tc := range []struct {
		name string
		rank func(c *Comm) error // ranks 0 and 2; rank 1 returns boom
	}{
		{"peers-blocked", func(c *Comm) error {
			// Both wait on rank 1 forever; the abort must free them.
			_, err := c.Recv(1, 1, make([]byte, 1))
			return err
		}},
		{"send-after-abort", func(c *Comm) error {
			_, err := c.Recv(1, 1, make([]byte, 1)) // only the abort ends this
			if c.Rank() == 2 {
				return err
			}
			// Rank 0 ignores the abort and sends to rank 2 until the
			// torn-down fabric refuses.
			for {
				if err := c.Send(2, 1, []byte{0}); err != nil {
					return err
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWithTimeout(t, 3, Config{Model: testModel()}, func(c *Comm) error {
				if c.Rank() == 1 {
					return boom
				}
				return tc.rank(c)
			})
			if got == nil || got.Error() != boom.Error() {
				t.Errorf("err = %v, want the application failure alone", got)
			}
		})
	}
}

func TestFaultBudgetAllowsPrefix(t *testing.T) {
	// With a generous budget the job completes; the wrapper must be
	// transparent until the budget is exhausted.
	cfg := faultyConfig(0, 1000)
	got := runWithTimeout(t, 2, cfg, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			if err := c.Barrier(); err != nil {
				return fmt.Errorf("iter %d: %w", i, err)
			}
		}
		return nil
	})
	if got != nil {
		t.Errorf("healthy-budget run failed: %v", got)
	}
}

// TestFailedSendRecvLeavesNoSlotLinked: a SendRecv whose send fails
// leaves its receive posted. The next blocking call must not reuse that
// request while it is still linked in, or a later message would land in
// a stale buffer and the request waiting for it would never complete.
func TestFailedSendRecvLeavesNoSlotLinked(t *testing.T) {
	for _, eager := range []int{0, -1} { // default eager, all rendezvous
		t.Run(fmt.Sprintf("eager=%d", eager), func(t *testing.T) {
			var failed atomic.Bool
			cfg := Config{Model: testModel(), EagerThreshold: eager, sendHook: func(rank int) error {
				if rank == 0 && failed.CompareAndSwap(false, true) {
					return errInjected
				}
				return nil
			}}
			err := runWithTimeout(t, 2, cfg, func(c *Comm) error {
				if c.Rank() == 1 {
					if err := c.Send(0, 3, []byte("one")); err != nil {
						return err
					}
					return c.Send(0, 3, []byte("two!"))
				}
				if _, err := c.SendRecv(1, 1, []byte("x"), 1, 2, make([]byte, 8)); !errors.Is(err, errInjected) {
					return fmt.Errorf("SendRecv: err = %v, want the injected fault", err)
				}
				first := make([]byte, 8)
				st, err := c.Recv(1, 3, first)
				if err != nil || st.Count != 3 || string(first[:st.Count]) != "one" {
					return fmt.Errorf("Recv after the fault: %q, %+v, %v; want \"one\", Count 3", first[:st.Count], st, err)
				}
				second := make([]byte, 8)
				req, err := c.Irecv(1, 3, second)
				if err != nil {
					return err
				}
				st, err = req.Wait()
				if err != nil || st.Count != 4 || string(second[:st.Count]) != "two!" {
					return fmt.Errorf("Irecv after the fault: %q, %+v, %v; want \"two!\", Count 4", second[:st.Count], st, err)
				}
				if string(first[:3]) != "one" {
					return fmt.Errorf("the first receive's buffer was overwritten: %q", first)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

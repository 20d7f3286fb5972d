package mp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestSplitEvenOdd(t *testing.T) {
	err := Run(6, Config{}, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub == nil {
			return errors.New("got nil communicator")
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		// Rank within the sub-communicator follows parent order.
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), wantRank)
		}
		if sub.GlobalRank() != c.Rank() {
			return fmt.Errorf("global rank %d, want %d", sub.GlobalRank(), c.Rank())
		}
		// A collective on the sub-communicator only sees its members.
		sum, err := sub.AllreduceScalar(OpSum, float64(c.Rank()))
		if err != nil {
			return err
		}
		want := 0.0 + 2 + 4 // evens
		if c.Rank()%2 == 1 {
			want = 1.0 + 3 + 5
		}
		if sum != want {
			return fmt.Errorf("sub allreduce = %v, want %v", sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	err := Run(4, Config{}, func(c *Comm) error {
		// Reverse order via descending keys.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		want := 3 - c.Rank()
		if sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// Bcast from sub-rank 0 (= parent rank 3) must deliver to all.
		buf := []byte{0}
		if sub.Rank() == 0 {
			buf[0] = 42
		}
		if err := sub.Bcast(0, buf); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("bcast over reordered comm failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	err := Run(4, Config{}, func(c *Comm) error {
		color := Undefined
		if c.Rank() < 2 {
			color = 0
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				return fmt.Errorf("expected 2-rank comm, got %v", sub)
			}
		} else if sub != nil {
			return fmt.Errorf("Undefined color returned a communicator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitInvalidColor(t *testing.T) {
	err := Run(1, Config{}, func(c *Comm) error {
		if _, err := c.Split(-5, 0); err == nil {
			return errors.New("negative color accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitTrafficIsolation(t *testing.T) {
	// P2P with the same (src, tag) on parent and child communicators
	// must not cross-match: context ids isolate them.
	err := Run(2, Config{}, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		const tag = 5
		if c.Rank() == 0 {
			if err := c.Send(1, tag, []byte("world")); err != nil {
				return err
			}
			return sub.Send(1, tag, []byte("child"))
		}
		// Receive from the child comm FIRST although the world message
		// arrived first.
		buf := make([]byte, 8)
		st, err := sub.Recv(0, tag, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "child" {
			return fmt.Errorf("child comm got %q", buf[:st.Count])
		}
		st, err = c.Recv(0, tag, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Count]) != "world" {
			return fmt.Errorf("world comm got %q", buf[:st.Count])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNested(t *testing.T) {
	// Split a split: 8 ranks -> two halves -> quarters.
	err := Run(8, Config{}, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		sum, err := quarter.AllreduceScalar(OpSum, 1)
		if err != nil {
			return err
		}
		if sum != 2 {
			return fmt.Errorf("quarter allreduce = %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRendezvousAcrossComms(t *testing.T) {
	// Large (rendezvous) messages must respect context isolation too.
	err := Run(2, Config{EagerThreshold: -1}, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{7}, 1<<15)
		if c.Rank() == 0 {
			sreq, err := c.Isend(1, 1, payload)
			if err != nil {
				return err
			}
			if err := sub.Send(1, 1, bytes.Repeat([]byte{9}, 1<<15)); err != nil {
				return err
			}
			return c.waitFor(sreq)
		}
		buf := make([]byte, 1<<15)
		if _, err := sub.Recv(0, 1, buf); err != nil {
			return err
		}
		if buf[0] != 9 {
			return fmt.Errorf("sub comm rendezvous got %d", buf[0])
		}
		if _, err := c.Recv(0, 1, buf); err != nil {
			return err
		}
		if buf[0] != 7 {
			return fmt.Errorf("world rendezvous got %d", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChildCtxDisjoint(t *testing.T) {
	seen := map[uint64]bool{0: true} // world ctx reserved
	for parent := uint64(0); parent < 3; parent++ {
		for seq := uint64(1); seq < 10; seq++ {
			for color := 0; color < 10; color++ {
				ctx := childCtx(parent, seq, color)
				if seen[ctx] {
					t.Fatalf("ctx collision at (%d,%d,%d)", parent, seq, color)
				}
				seen[ctx] = true
			}
		}
	}
}

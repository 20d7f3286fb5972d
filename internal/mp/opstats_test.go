package mp

import (
	"fmt"
	"testing"
)

func TestStatsCountP2P(t *testing.T) {
	err := Run(2, Config{Model: testModel(), EagerThreshold: 100}, func(c *Comm) error {
		small := make([]byte, 50)   // eager
		large := make([]byte, 5000) // rendezvous
		if c.Rank() == 0 {
			if err := c.Send(1, 1, small); err != nil {
				return err
			}
			if err := c.Send(1, 2, large); err != nil {
				return err
			}
			s := c.Stats()
			if s.SendsEager != 1 || s.SendsRndv != 1 {
				return fmt.Errorf("sender stats %+v", s)
			}
			if s.BytesSent != 5050 {
				return fmt.Errorf("bytes sent %d", s.BytesSent)
			}
			return nil
		}
		buf := make([]byte, 5000)
		if _, err := c.Recv(0, 1, buf); err != nil {
			return err
		}
		if _, err := c.Recv(0, 2, buf); err != nil {
			return err
		}
		s := c.Stats()
		if s.Recvs != 2 {
			return fmt.Errorf("recvs %d", s.Recvs)
		}
		if s.BytesRecv != 5050 {
			return fmt.Errorf("bytes recv %d", s.BytesRecv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsMatchPaths(t *testing.T) {
	// First message arrives before the receive is posted (unexpected
	// hit); second is received after posting (posted hit).
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if c.Rank() == 0 {
			for tag := 1; tag <= 2; tag++ {
				if err := c.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			// Rank 1 signals readiness before our third send.
			if _, err := c.Recv(1, 2, make([]byte, 1)); err != nil {
				return err
			}
			return c.Send(1, 3, []byte{3})
		}
		// Receive tag 2 first: the tag-1 message ahead of it on the same
		// pair is pulled off the fabric first and lands in the
		// unexpected queue.
		buf := make([]byte, 1)
		if _, err := c.Recv(0, 2, buf); err != nil {
			return err
		}
		if _, err := c.Recv(0, 1, buf); err != nil {
			return err
		}
		s := c.Stats()
		if s.MatchUnexp != 1 {
			return fmt.Errorf("unexpected hits %d, want 1 (stats %+v)", s.MatchUnexp, s)
		}
		// Now post first, then trigger the send.
		req, err := c.Irecv(0, 3, buf)
		if err != nil {
			return err
		}
		if err := c.Send(0, 2, []byte{2}); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		s = c.Stats()
		if s.MatchPosted < 1 {
			return fmt.Errorf("posted hits %d, want >= 1", s.MatchPosted)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsBinomialBcastSendCount(t *testing.T) {
	// A binomial broadcast on p=8 issues exactly p-1 = 7 point-to-point
	// sends in total (each rank receives once); verify via summed
	// counters — the cost-model check the instrumentation exists for.
	const p = 8
	err := Run(p, Config{Model: testModel(), Bcast: BcastBinomial}, func(c *Comm) error {
		buf := make([]byte, 64)
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		sends := float64(c.Stats().SendsEager + c.Stats().SendsRndv)
		total, err := c.AllreduceScalar(OpSum, sends)
		if err != nil {
			return err
		}
		// The allreduce itself added sends AFTER the snapshot, so
		// total counts only bcast traffic.
		if int(total) != p-1 {
			return fmt.Errorf("binomial bcast sent %d messages, want %d", int(total), p-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCollectivesCounted(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Bcast(0, make([]byte, 4)); err != nil {
			return err
		}
		if got := c.Stats().Collectives; got != 2 {
			return fmt.Errorf("collectives %d, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

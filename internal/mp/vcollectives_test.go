package mp

import (
	"fmt"
	"testing"
)

// rampCounts gives rank r a contribution of r+1 bytes.
func rampCounts(p int) []int {
	counts := make([]int, p)
	for i := range counts {
		counts[i] = i + 1
	}
	return counts
}

// rampPayload is rank r's contribution: r+1 bytes of value r+10.
func rampPayload(r int) []byte {
	out := make([]byte, r+1)
	for i := range out {
		out[i] = byte(r + 10)
	}
	return out
}

// checkPacked verifies buf holds all contributions packed in rank order.
func checkPacked(buf []byte, p int) error {
	off := 0
	for r := 0; r < p; r++ {
		for i := 0; i < r+1; i++ {
			if buf[off] != byte(r+10) {
				return fmt.Errorf("rank %d byte %d = %d", r, i, buf[off])
			}
			off++
		}
	}
	return nil
}

func TestAllgathervEveryRank(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := Run(p, Config{Model: testModel()}, func(c *Comm) error {
				counts := rampCounts(c.Size())
				recv := make([]byte, c.Size()*(c.Size()+1)/2)
				if err := c.Allgatherv(rampPayload(c.Rank()), counts, recv); err != nil {
					return err
				}
				return checkPacked(recv, c.Size())
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlltoallvExchange(t *testing.T) {
	// Rank r sends (d+1) bytes of value r*16+d to each destination d.
	for _, p := range []int{1, 2, 4, 5} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := Run(p, Config{Model: testModel()}, func(c *Comm) error {
				pp := c.Size()
				sendCounts := make([]int, pp)
				recvCounts := make([]int, pp)
				for d := 0; d < pp; d++ {
					sendCounts[d] = d + 1        // to rank d
					recvCounts[d] = c.Rank() + 1 // from rank d: my id + 1
				}
				var send []byte
				for d := 0; d < pp; d++ {
					for i := 0; i < d+1; i++ {
						send = append(send, byte(c.Rank()*16+d))
					}
				}
				recv := make([]byte, pp*(c.Rank()+1))
				if err := c.Alltoallv(send, sendCounts, recv, recvCounts); err != nil {
					return err
				}
				off := 0
				for src := 0; src < pp; src++ {
					for i := 0; i < c.Rank()+1; i++ {
						want := byte(src*16 + c.Rank())
						if recv[off] != want {
							return fmt.Errorf("from %d byte %d = %d, want %d", src, i, recv[off], want)
						}
						off++
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

func TestAlltoallvValidation(t *testing.T) {
	err := Run(2, Config{Model: testModel()}, func(c *Comm) error {
		if err := c.Alltoallv(nil, []int{0}, nil, []int{0, 0}); err == nil {
			return fmt.Errorf("short counts accepted")
		}
		if err := c.Alltoallv(make([]byte, 3), []int{1, 1}, nil, []int{0, 0}); err == nil {
			return fmt.Errorf("wrong buffer size accepted")
		}
		if err := c.Alltoallv(nil, []int{-1, 1}, nil, []int{0, 0}); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVCollectivesOnSubComm(t *testing.T) {
	// v-collectives must work on a split communicator.
	err := Run(4, Config{Model: testModel()}, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		counts := rampCounts(sub.Size())
		recv := make([]byte, 3) // 1+2
		if err := sub.Allgatherv(rampPayload(sub.Rank()), counts, recv); err != nil {
			return err
		}
		return checkPacked(recv, sub.Size())
	})
	if err != nil {
		t.Fatal(err)
	}
}

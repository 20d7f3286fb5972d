package transport

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// TestEmptyPayloadDoesNotCarryCapacity is the regression test for the
// aliasing bug the pool would turn into corruption: big[:0] used to
// cross the fabric with big's capacity attached, so the receiver's
// Release would have pooled memory the sender still owns. Run under
// -race: the sender keeps writing big while pooled traffic of big's
// size class flows.
func TestEmptyPayloadDoesNotCarryCapacity(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			fab, err := f.mk(2)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			e0, _ := fab.Endpoint(0)
			e1, _ := fab.Endpoint(1)

			big := make([]byte, 1<<16)
			if err := e0.Send(1, Packet{Type: Data, Data: big[:0]}); err != nil {
				t.Fatal(err)
			}
			pkt, ok, err := e1.Recv(true)
			if err != nil || !ok {
				t.Fatalf("recv: ok=%v err=%v", ok, err)
			}
			if pkt.Data != nil {
				t.Fatalf("empty payload arrived with len %d cap %d, want nil", len(pkt.Data), cap(pkt.Data))
			}
			Release(pkt.Data)

			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // the owner of big keeps using it
				defer wg.Done()
				for i := 0; i < 64; i++ {
					for j := range big {
						big[j] = byte(i)
					}
				}
			}()
			other := bytes.Repeat([]byte{0xAB}, len(big))
			for i := 0; i < 64; i++ {
				if err := e0.Send(1, Packet{Type: Data, Data: other}); err != nil {
					t.Fatal(err)
				}
				pkt, ok, err := e1.Recv(true)
				if err != nil || !ok {
					t.Fatalf("recv: ok=%v err=%v", ok, err)
				}
				if !bytes.Equal(pkt.Data, other) {
					t.Fatalf("round %d: payload corrupted", i)
				}
				Release(pkt.Data)
			}
			wg.Wait()
		})
	}
}

// TestReleaseIgnoresForeignBuffers: only capacities the pool hands out
// (powers of two) are ever taken back.
func TestReleaseIgnoresForeignBuffers(t *testing.T) {
	foreign := make([]byte, 100) // cap 100: not a pool capacity
	Release(foreign)
	Release(nil)
	Release(foreign[:0:0])
	for i := 0; i < 32; i++ {
		got := getPayload(100)
		if cap(got) != 128 {
			t.Fatalf("getPayload(100) cap = %d, want 128", cap(got))
		}
		if unsafe.SliceData(got) == unsafe.SliceData(foreign) {
			t.Fatal("pool handed out a buffer it never allocated")
		}
	}
	for n := 1; n <= 1<<12; n = n*3 + 1 {
		if b := getPayload(n); len(b) != n || cap(b)&(cap(b)-1) != 0 || cap(b) >= 2*n && n > 1 {
			t.Errorf("getPayload(%d): len %d cap %d", n, len(b), cap(b))
		}
	}
}

// TestReleasedBufferNeverAliasesLivePacket: buffers obtained after a
// Release must be disjoint from every payload that is still alive —
// queued in the destination mailbox, or already pulled by the receiver
// but not yet released (which is what mp's unexpected queue holds).
func TestReleasedBufferNeverAliasesLivePacket(t *testing.T) {
	const (
		size  = 3000 // all payloads share the 4 KiB class
		batch = 48
	)
	pattern := func(id int) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, size/2) }
	for _, f := range fabrics()[:2] { // the in-process fabrics: Send draws from the pool
		t.Run(f.name, func(t *testing.T) {
			fab, err := f.mk(2)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			e0, _ := fab.Endpoint(0)
			e1, _ := fab.Endpoint(1)
			send := func(id int) {
				t.Helper()
				if err := e0.Send(1, Packet{Type: Data, Seq: uint64(id), Data: pattern(id)}); err != nil {
					t.Fatal(err)
				}
			}
			recv := func() Packet {
				t.Helper()
				pkt, ok, err := e1.Recv(true)
				if err != nil || !ok {
					t.Fatalf("recv: ok=%v err=%v", ok, err)
				}
				return pkt
			}

			for id := 0; id < 3*batch; id++ {
				send(id)
			}
			for i := 0; i < batch; i++ { // consumed and handed back
				Release(recv().Data)
			}
			var held []Packet // pulled off the fabric, still owned by the receiver
			for i := 0; i < batch; i++ {
				held = append(held, recv())
			}
			// The third batch is still queued. New traffic now draws on
			// the released buffers.
			for id := 3 * batch; id < 5*batch; id++ {
				send(id)
			}
			live := held
			for i := 0; i < 3*batch; i++ {
				live = append(live, recv())
			}
			seen := make(map[*byte]uint64, len(live))
			for _, pkt := range live {
				if !bytes.Equal(pkt.Data, pattern(int(pkt.Seq))) {
					t.Fatalf("packet %d overwritten while alive", pkt.Seq)
				}
				p := unsafe.SliceData(pkt.Data)
				if other, dup := seen[p]; dup {
					t.Fatalf("packets %d and %d share a buffer", other, pkt.Seq)
				}
				seen[p] = pkt.Seq
			}
		})
	}
}

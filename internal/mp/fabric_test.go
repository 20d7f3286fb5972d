package mp

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cluster"
)

// testFabric builds a fabric of n ranks on model and closes it when the
// test ends.
func testFabric(t *testing.T, n int, model *cluster.Model) *fabric {
	t.Helper()
	f, err := newFabric(n, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.close)
	return f
}

// simRow runs body as a subtest named "sim", for the LogGP-timed fabric,
// as the engine tests name their rows in configs.
func simRow(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	t.Run("sim", body)
}

// mustRecv takes rank's next packet, failing the test if the fabric is
// closed. It takes a batch and puts back all but its first packet, ahead
// of anything queued since, so a test reads packets one at a time.
func mustRecv(t *testing.T, f *fabric, rank int) packet {
	t.Helper()
	m := &f.ports[rank].box
	batch, ok := m.take(nil)
	if !ok {
		t.Fatal("fabric closed early")
	}
	m.mu.Lock()
	m.queue = append(batch[1:], m.queue...)
	m.mu.Unlock()
	return batch[0]
}

func TestFabricBasicDelivery(t *testing.T) {
	simRow(t, func(t *testing.T) {
		f := testFabric(t, 2, testModel())
		payload := []byte("hello fabric")
		if err := f.send(f.route(0, 1), packet{kind: kindData, tag: 7, seq: 3, data: payload}); err != nil {
			t.Fatal(err)
		}
		pkt := mustRecv(t, f, 1)
		if pkt.kind != kindData || pkt.src != 0 || pkt.tag != 7 || pkt.seq != 3 {
			t.Errorf("header mismatch: %+v", pkt)
		}
		if !bytes.Equal(pkt.data, payload) {
			t.Errorf("payload = %q", pkt.data)
		}
	})
}

func TestFabricSenderBufferReuse(t *testing.T) {
	simRow(t, func(t *testing.T) {
		// After send returns, mutating the sender's buffer must not corrupt
		// the delivered packet.
		f := testFabric(t, 2, testModel())
		buf := []byte{1, 2, 3, 4}
		if err := f.send(f.route(0, 1), packet{kind: kindData, data: buf}); err != nil {
			t.Fatal(err)
		}
		buf[0] = 99
		if pkt := mustRecv(t, f, 1); pkt.data[0] != 1 {
			t.Error("payload aliased the sender's buffer")
		}
	})
}

func TestFabricOrderingPerPair(t *testing.T) {
	simRow(t, func(t *testing.T) {
		f := testFabric(t, 2, testModel())
		const n = 500
		for i := 0; i < n; i++ {
			if err := f.send(f.route(0, 1), packet{kind: kindData, seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if pkt := mustRecv(t, f, 1); pkt.seq != uint64(i) {
				t.Fatalf("out of order: got seq %d at position %d", pkt.seq, i)
			}
		}
	})
}

func TestFabricManyToOne(t *testing.T) {
	simRow(t, func(t *testing.T) {
		const senders = 7
		const per = 100
		f := testFabric(t, senders+1, testModel())
		var wg sync.WaitGroup
		for s := 1; s <= senders; s++ {
			wg.Add(1)
			go func(s int) { // each sender rank on its own goroutine, as under Run
				defer wg.Done()
				for i := 0; i < per; i++ {
					data := []byte(fmt.Sprintf("%d:%d", s, i))
					if err := f.send(f.route(s, 0), packet{kind: kindData, tag: s, seq: uint64(i), data: data}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(s)
		}
		perSrcNext := make([]uint64, senders+1)
		for got := 0; got < senders*per; got++ {
			pkt := mustRecv(t, f, 0)
			if pkt.seq != perSrcNext[pkt.src] {
				t.Fatalf("src %d: seq %d, want %d", pkt.src, pkt.seq, perSrcNext[pkt.src])
			}
			perSrcNext[pkt.src]++
		}
		wg.Wait()
	})
}

func TestFabricCloseUnblocksRecv(t *testing.T) {
	simRow(t, func(t *testing.T) {
		f := testFabric(t, 2, testModel())
		done := make(chan bool)
		go func() {
			_, ok := f.ports[0].box.take(nil)
			done <- ok
		}()
		f.close()
		if ok := <-done; ok {
			t.Error("recv returned a packet after close")
		}
		if err := f.send(f.route(1, 0), packet{kind: kindData}); err != ErrClosed {
			t.Errorf("send after close = %v, want ErrClosed", err)
		}
	})
}

// TestSimClockAdvancesOnSend: an eager send charges its sender the
// overhead plus the injection, which takes k*s*G when k ranks share the
// node's NIC and s*G for a rank alone on its node.
func TestSimClockAdvancesOnSend(t *testing.T) {
	const size = 1000
	for _, k := range []int{1, 4} {
		m := testModel()
		m.Topo = cluster.Topology{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: k}
		lp := m.Links.InterNode
		want := lp.O + float64(k*size)*lp.GB
		err := Run(2*k, Config{Model: m}, func(c *Comm) error {
			buf := make([]byte, size)
			if c.Rank() >= k {
				_, err := c.Recv(c.Rank()-k, 0, buf)
				return err
			}
			if err := c.Send(c.Rank()+k, 0, buf); err != nil {
				return err
			}
			if got := c.Time(); math.Abs(got-want) > 1e-12*want {
				return fmt.Errorf("rank %d: clock after send = %v, want %v", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestSimArrivalIncludesLatency(t *testing.T) {
	m := testModel()
	n := m.Topo.TotalCores()
	f := testFabric(t, n, m)
	// Rank 0 -> last rank is inter-node under block placement.
	if c := cluster.Classify(f.ports[0].loc, f.ports[n-1].loc); c != cluster.InterNode {
		t.Fatalf("ranks 0,%d class = %v, want inter-node", n-1, c)
	}
	if err := f.send(f.route(0, n-1), packet{kind: kindData, data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	pkt := mustRecv(t, f, n-1)
	lp := m.Links.InterNode
	if pkt.arrival < lp.L {
		t.Errorf("arrival %v below wire latency %v", pkt.arrival, lp.L)
	}
	// Eager data carries the path overhead plus the bounce-buffer copy,
	// and send takes the copy's length from the payload.
	if want := lp.O + 8*m.Links.Self.GB; pkt.n != 8 || pkt.recvO != want {
		t.Errorf("n = %d, recvO = %v, want 8, %v", pkt.n, pkt.recvO, want)
	}
}

func TestSimIntraVsInterNodeArrival(t *testing.T) {
	m := testModel()
	n := m.Topo.TotalCores()
	f := testFabric(t, n, m)
	if err := f.send(f.route(0, 1), packet{kind: kindData, data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	intra := mustRecv(t, f, 1)
	if err := f.send(f.route(0, n-1), packet{kind: kindData, data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	inter := mustRecv(t, f, n-1)
	if inter.arrival <= intra.arrival {
		t.Errorf("inter-node arrival %v not after intra-node %v", inter.arrival, intra.arrival)
	}
}

// TestSimNICContentionSerializes: payloads booked back to back on one
// rank's egress lane start one injection apart, k*s*G between nodes
// when k ranks share the node's NIC, s*G when the rank is alone on its
// node, and s*G within a node whatever k is.
func TestSimNICContentionSerializes(t *testing.T) {
	const size = 100000
	for _, k := range []int{1, 4} {
		m := testModel()
		m.Topo = cluster.Topology{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: k}
		f := testFabric(t, 2*k, m)
		check := func(rt route, want float64) {
			first, second := f.book(rt, 0, size), f.book(rt, 0, size)
			if gap := second - first; math.Abs(gap-want) > 1e-12*want {
				t.Errorf("k=%d, %d->%d: lane gap %v, want %v", k, rt.src, rt.dst, gap, want)
			}
		}
		check(f.route(0, k), float64(k*size)*m.Links.InterNode.GB)
		if k > 1 {
			check(f.route(0, 1), size*m.Links.IntraSocket.GB)
		}
	}
}

func TestSimAdvanceToAndAddDelay(t *testing.T) {
	f := testFabric(t, 2, testModel())
	f.advanceTo(0, 5)
	if f.now(0) != 5 {
		t.Errorf("advanceTo: now = %v", f.now(0))
	}
	f.advanceTo(0, 3) // backwards: no-op
	if f.now(0) != 5 {
		t.Errorf("advanceTo went backwards: %v", f.now(0))
	}
	f.addDelay(0, 2)
	if f.now(0) != 7 {
		t.Errorf("addDelay: now = %v", f.now(0))
	}
	f.addDelay(0, -1) // negative: no-op
	if f.now(0) != 7 {
		t.Errorf("negative addDelay applied: %v", f.now(0))
	}
	if f.now(1) != 0 {
		t.Errorf("rank 1's clock moved with rank 0's: %v", f.now(1))
	}
}

func TestSimRejectsBadConfig(t *testing.T) {
	if _, err := newFabric(2, nil); err == nil {
		t.Error("nil model accepted")
	}
	if err := Run(2, Config{}, func(*Comm) error { return nil }); err == nil {
		t.Error("Run without a model accepted")
	}
	m := testModel()
	if _, err := newFabric(m.Topo.TotalCores()+1, m); err != cluster.ErrTooManyRanks {
		t.Errorf("overcommit: err = %v, want ErrTooManyRanks", err)
	}
}

// TestMailboxTakeSwapsBatches: take hands over everything queued, in
// arrival order, and keeps the reader's emptied batch as the queue, so
// two slices alternate and a steady exchange allocates nothing. A closed
// mailbox still yields what was queued before it reports closed.
func TestMailboxTakeSwapsBatches(t *testing.T) {
	m := &mailbox{}
	m.cond.L = &m.mu
	var spare []packet
	arrays := map[*packet]bool{}
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			m.put(packet{seq: uint64(round*100 + i)})
		}
		batch, ok := m.take(spare)
		if !ok || len(batch) != 100 {
			t.Fatalf("round %d: ok=%v, %d packets, want 100", round, ok, len(batch))
		}
		for i, p := range batch {
			if p.seq != uint64(round*100+i) {
				t.Fatalf("round %d i %d: seq=%d", round, i, p.seq)
			}
		}
		arrays[unsafe.SliceData(batch)] = true
		clear(batch)
		spare = batch[:0]
	}
	if len(arrays) != 2 {
		t.Errorf("batches used %d backing arrays, want 2", len(arrays))
	}
	m.put(packet{seq: 1})
	m.close()
	if batch, ok := m.take(spare); !ok || len(batch) != 1 {
		t.Errorf("after close: ok=%v, %d packets, want the one queued", ok, len(batch))
	}
	if _, ok := m.take(nil); ok {
		t.Error("closed, drained mailbox reported a batch")
	}
}

// TestEmptyPayloadDoesNotCarryCapacity is the regression test for the
// aliasing bug the pool would turn into corruption: big[:0] used to
// cross the fabric with big's capacity attached, so the receiver's
// release would have pooled memory the sender still owns. Run under
// -race: the sender keeps writing big while pooled traffic of big's
// size class flows.
func TestEmptyPayloadDoesNotCarryCapacity(t *testing.T) {
	simRow(t, func(t *testing.T) {
		f := testFabric(t, 2, testModel())
		big := make([]byte, 1<<16)
		if err := f.send(f.route(0, 1), packet{kind: kindData, data: big[:0]}); err != nil {
			t.Fatal(err)
		}
		pkt := mustRecv(t, f, 1)
		if pkt.data != nil {
			t.Fatalf("empty payload arrived with len %d cap %d, want nil", len(pkt.data), cap(pkt.data))
		}
		release(pkt.data)

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
			if err := f.send(f.route(0, 1), packet{kind: kindData, data: other}); err != nil {
				t.Fatal(err)
			}
			pkt := mustRecv(t, f, 1)
			if !bytes.Equal(pkt.data, other) {
				t.Fatalf("round %d: payload corrupted", i)
			}
			release(pkt.data)
		}
		wg.Wait()
	})
}

// TestReleaseIgnoresForeignBuffers: only capacities the pool hands out
// (powers of two) are ever taken back.
func TestReleaseIgnoresForeignBuffers(t *testing.T) {
	foreign := make([]byte, 100) // cap 100: not a pool capacity
	release(foreign)
	release(nil)
	release(foreign[:0:0])
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
// release must be disjoint from every payload that is still alive —
// queued in the destination mailbox, or already pulled by the receiver
// but not yet released (which is what the engine's unexpected queue
// holds).
func TestReleasedBufferNeverAliasesLivePacket(t *testing.T) {
	simRow(t, func(t *testing.T) {
		const (
			size  = 3000 // all payloads share the 4 KiB class
			batch = 48
		)
		pattern := func(id int) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, size/2) }
		f := testFabric(t, 2, testModel())
		send := func(id int) {
			t.Helper()
			if err := f.send(f.route(0, 1), packet{kind: kindData, seq: uint64(id), data: pattern(id)}); err != nil {
				t.Fatal(err)
			}
		}

		for id := 0; id < 3*batch; id++ {
			send(id)
		}
		for i := 0; i < batch; i++ { // consumed and handed back
			release(mustRecv(t, f, 1).data)
		}
		var held []packet // pulled off the fabric, still owned by the receiver
		for i := 0; i < batch; i++ {
			held = append(held, mustRecv(t, f, 1))
		}
		// The third batch is still queued. New traffic now draws on the
		// released buffers.
		for id := 3 * batch; id < 5*batch; id++ {
			send(id)
		}
		live := held
		for i := 0; i < 3*batch; i++ {
			live = append(live, mustRecv(t, f, 1))
		}
		seen := make(map[*byte]uint64, len(live))
		for _, pkt := range live {
			if !bytes.Equal(pkt.data, pattern(int(pkt.seq))) {
				t.Fatalf("packet %d overwritten while alive", pkt.seq)
			}
			p := unsafe.SliceData(pkt.data)
			if other, dup := seen[p]; dup {
				t.Fatalf("packets %d and %d share a buffer", other, pkt.seq)
			}
			seen[p] = pkt.seq
		}
	})
}

// BenchmarkNewFabric is the cost of building a world: 512 ranks, every
// core of ib-64n, the largest preset. Each rank is placed once, so time
// and bytes grow with the rank count alone.
func BenchmarkNewFabric(b *testing.B) {
	m := cluster.Preset("ib-64n")
	n := m.Topo.TotalCores()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := newFabric(n, m)
		if err != nil {
			b.Fatal(err)
		}
		f.close()
	}
}

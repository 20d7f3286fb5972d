package mp

import (
	"errors"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/cluster"
)

// fabric is the network under one Run: ranks are goroutines exchanging
// packets through in-process mailboxes, every packet is stamped with a
// modeled arrival time derived from the platform's LogGP parameters,
// and each rank owns a virtual clock that the engine advances as
// messages complete. Benchmarks read virtual seconds, so the
// latency/bandwidth structure of the modeled machine is reproduced
// without any sleeping.
//
// Timing rules, for a payload of s bytes from rank a to rank b over the
// link class with parameters (L, o, g, G), where k is a's share of its
// node's NIC (the world's ranks on a's node between nodes, 1 within):
//
//	start  = max(ready, lane_a)    (a's egress lane, booked in a's program order)
//	lane_a = start + k*max(g, s*G)
//	arrive = start + k*s*G + L
//
// Eager data books at the send, ready at clock_a + o, and charges
// clock_a += o + k*s*G. A rendezvous payload books its slot at Isend.
// Its RTS leaves at clock_a + o, and b's CTS at max(post_b, rts) + o,
// where post_b is b's clock when it posted the receive. The payload
// leaves at max(slot, cts + 2o), and a's Wait takes the end of its
// injection. Control packets bypass the lane and cost no clock anything
// (an offloaded handshake). A receive charges clock_b =
// max(clock_b, arrive) + o at its Wait. The static share is exact when
// all k ranks on a node stream and pessimistic when fewer do, as in an
// HPL panel broadcast.
type fabric struct {
	links    cluster.Links
	ports    []port
	sendHook func(rank int) error // Config.sendHook
}

// port is one rank's attachment to the fabric. Only the owning rank
// reads or writes its clock and lane.
type port struct {
	loc   cluster.Location
	share float64 // ranks of the world on this node
	clock float64 // virtual seconds
	lane  float64 // when this rank's egress is next free
	box   mailbox
}

// route is one send's path, classified once per send: the pair's link
// parameters, with g and G scaled by the sender's share k.
type route struct {
	cluster.LogGP
	src, dst int
}

// pktKind discriminates packet kinds. The rendezvous kinds mirror a real
// MPI implementation: large sends announce themselves (RTS), the
// receiver grants (CTS) once a matching receive is posted, and only then
// does the payload move (rndv).
type pktKind uint8

const (
	kindData pktKind = iota // an eager message carrying its full payload
	kindRTS                 // request-to-send: announces a rendezvous; no payload
	kindCTS                 // clear-to-send: grants a rendezvous; no payload
	kindRndv                // the payload of a granted rendezvous
)

// packet is one unit of delivery between ranks. Data/RTS carry the
// sender's (src, tag); CTS/rndv are matched by seq alone. arrival is the
// virtual time (seconds) at which the packet reaches the receiver and
// recvO the receiver-side CPU overhead to charge.
//
// n is the payload's length, all that timing reads; send sets it from
// data when data is present. Inside SizeOnly data is nil; otherwise a
// received packet's data is a pooled buffer owned by the receiving
// rank: it copies the bytes out, hands the buffer back with release,
// and never retains or reads the slice after that.
type packet struct {
	kind    pktKind
	src     int
	tag     int
	seq     uint64
	data    []byte
	n       int
	arrival float64
	recvO   float64
}

// newFabric builds the fabric for n ranks on model, placing each rank
// under the model's placement policy.
func newFabric(n int, model *cluster.Model) (*fabric, error) {
	if model == nil {
		return nil, errors.New("mp: Config.Model is required")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if n > model.Topo.TotalCores() {
		return nil, cluster.ErrTooManyRanks
	}
	f := &fabric{
		links: model.Links,
		ports: make([]port, n),
	}
	perNode := make([]float64, model.Topo.Nodes)
	for r := range f.ports {
		p := &f.ports[r]
		loc, err := model.Topo.Place(r, n, model.Placement)
		if err != nil {
			return nil, err
		}
		p.loc = loc
		p.box.cond.L = &p.box.mu
		perNode[loc.Node]++
	}
	for r := range f.ports {
		f.ports[r].share = perNode[f.ports[r].loc.Node]
	}
	return f, nil
}

// route classifies the pair (src, dst) once for a send.
func (f *fabric) route(src, dst int) route {
	from, to := &f.ports[src], &f.ports[dst]
	r := route{LogGP: f.links.For(cluster.Classify(from.loc, to.loc)), src: src, dst: dst}
	if from.loc.Node != to.loc.Node {
		r.G *= from.share
		r.GB *= from.share
	}
	return r
}

// inject is how long s bytes take to leave the sender on r.
func (r route) inject(s int) float64 { return float64(s) * r.GB }

// book reserves the sender's egress lane for s bytes ready at t and
// returns when they start to leave.
func (f *fabric) book(r route, t float64, s int) float64 {
	p := &f.ports[r.src]
	start := max(t, p.lane)
	p.lane = start + max(r.G, r.inject(s))
	return start
}

// send queues a copy of pkt for r.dst. pkt.arrival holds when its last
// byte leaves the sender; send adds the wire latency and the receive
// overhead. The copy is pooled, so the caller still owns pkt.data and
// may reuse it as soon as send returns; an empty or size-only payload
// arrives as nil.
// send never blocks on the receiver; mailboxes are unbounded.
func (f *fabric) send(r route, pkt packet) error {
	if f.sendHook != nil {
		if err := f.sendHook(r.src); err != nil {
			return err
		}
	}
	pkt.arrival += r.L
	pkt.recvO = r.O
	// Eager data lands in a bounce buffer and is copied out at match
	// time; rendezvous payloads go straight to the posted buffer. The
	// copy is charged at the node's memcpy bandwidth (the Self link's
	// per-byte cost). This asymmetry is what creates the
	// eager/rendezvous crossover (experiment F12).
	if pkt.data != nil {
		pkt.n = len(pkt.data)
	}
	if pkt.kind == kindData {
		pkt.recvO += float64(pkt.n) * f.links.Self.GB
	}
	pkt.src = r.src
	pkt.data = clonePayload(pkt.data)
	if !f.ports[r.dst].box.put(pkt) {
		return ErrClosed
	}
	return nil
}

// recv blocks until rank's next packet arrives. ok is false once the
// fabric is closed and the mailbox drained.
func (f *fabric) recv(rank int) (pkt packet, ok bool) { return f.ports[rank].box.get() }

// now returns rank's virtual clock in seconds.
func (f *fabric) now(rank int) float64 { return f.ports[rank].clock }

// advanceTo moves rank's clock forward to t if t is later.
func (f *fabric) advanceTo(rank int, t float64) {
	if c := &f.ports[rank].clock; t > *c {
		*c = t
	}
}

// addDelay charges dt > 0 seconds of local work to rank's clock.
func (f *fabric) addDelay(rank int, dt float64) {
	if dt > 0 {
		f.ports[rank].clock += dt
	}
}

// close shuts every mailbox: blocked receivers wake with ok=false and
// later sends fail with ErrClosed. It is safe to call more than once
// and from any rank.
func (f *fabric) close() {
	for r := range f.ports {
		f.ports[r].box.close()
	}
}

// mailbox is an unbounded FIFO of packets with blocking dequeue. It is
// unbounded on purpose: MPI eager sends must not block the sender on a
// slow receiver (flow control above would deadlock correct programs).
// Its cond must have L = &mu before use.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []packet
	head   int
	closed bool
}

func (m *mailbox) put(p packet) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.queue = append(m.queue, p)
	m.cond.Signal()
	m.mu.Unlock()
	return true
}

func (m *mailbox) get() (packet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head >= len(m.queue) && !m.closed {
		m.cond.Wait()
	}
	if m.head >= len(m.queue) {
		return packet{}, false // closed and drained
	}
	p := m.queue[m.head]
	m.queue[m.head] = packet{} // release payload reference
	m.head++
	// Compact occasionally so the slice doesn't grow without bound.
	if m.head > 64 && m.head*2 >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = packet{}
		}
		m.queue = m.queue[:n]
		m.head = 0
	}
	return p, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// payloadPools recycles packet payload buffers. Class k holds buffers
// of capacity exactly 1<<k, stored as a pointer to their first byte (a
// pointer-shaped value, so Put and Get do not allocate). A payload is
// always fully overwritten by the copy that fills it, so recycled
// buffers are never cleared; the GC empties the pools.
var payloadPools [bits.UintSize]sync.Pool

// clonePayload returns a pooled copy of data for a packet in flight, or
// nil for an empty payload: a zero-length slice may still carry its
// owner's capacity, which must not cross the fabric and be released.
func clonePayload(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	buf := getPayload(len(data))
	copy(buf, data)
	return buf
}

// getPayload returns a buffer of length n > 0 with unspecified contents.
func getPayload(n int) []byte {
	k := bits.Len(uint(n - 1))
	if p, _ := payloadPools[k].Get().(*byte); p != nil {
		return unsafe.Slice(p, 1<<k)[:n]
	}
	return make([]byte, n, 1<<k)
}

// release returns the payload of a received packet to the buffer pool.
// The receiving rank owns packet.data from recv until it calls release,
// and must not touch the slice afterwards. Anything the pool cannot have
// handed out (nil, or a capacity that is not a power of two) is ignored.
func release(data []byte) {
	c := cap(data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	payloadPools[bits.TrailingZeros(uint(c))].Put(unsafe.SliceData(data))
}

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
// Timing rules, for a packet of s payload bytes from rank a to rank b
// over the link class with parameters (L, o, g, G):
//
//	inject = max(clock_a + o, nicFree_a)    (NIC shared per node, inter-node only)
//	arrive = inject + s*G + L
//	nicFree_a = inject + max(g, s*G)
//	clock_a += o + s*G                       (sender busy for overhead+copy)
//	clock_b = max(clock_b, arrive) + o       (charged when b waits on the receive)
//
// The receiver-side o is carried in the packet (recvO) because the
// receiving rank does not look up the path class. Rendezvous control
// packets (RTS, CTS) are charged when b handles them instead.
//
// Each rank is placed once, when the fabric is built; a send classifies
// the two placed ranks, so the fabric holds no per-pair state.
type fabric struct {
	links    cluster.Links
	ports    []port
	nics     []nic                // one per node: egress serialization point
	sendHook func(rank int) error // Config.sendHook
}

// port is one rank's attachment to the fabric.
type port struct {
	loc   cluster.Location
	clock float64 // virtual seconds; only the owning rank reads or writes it
	box   mailbox
}

type nic struct {
	mu   sync.Mutex
	free float64
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
// data of a received packet is a pooled buffer owned by the receiving
// rank: it copies the bytes out, hands the buffer back with release, and
// never retains or reads the slice after that.
type packet struct {
	kind    pktKind
	src     int
	tag     int
	seq     uint64
	data    []byte
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
		nics:  make([]nic, model.Topo.Nodes),
	}
	for r := range f.ports {
		p := &f.ports[r]
		loc, err := model.Topo.Place(r, n, model.Placement)
		if err != nil {
			return nil, err
		}
		p.loc = loc
		p.box.cond.L = &p.box.mu
	}
	return f, nil
}

// send stamps pkt with its modeled timing, charges the sender's clock
// and queues a copy for dst. The copy is pooled, so the caller still
// owns pkt.data and may reuse it as soon as send returns; an empty
// payload arrives as nil. send never blocks on the receiver; mailboxes
// are unbounded.
func (f *fabric) send(src, dst int, pkt packet) error {
	if f.sendHook != nil {
		if err := f.sendHook(src); err != nil {
			return err
		}
	}
	from, to := &f.ports[src], &f.ports[dst]
	p := f.links.For(cluster.Classify(from.loc, to.loc))
	s := float64(len(pkt.data))

	now := from.clock
	inject := now + p.O
	if from.loc.Node != to.loc.Node {
		// Inter-node messages serialize through the node's NIC.
		n := &f.nics[from.loc.Node]
		n.mu.Lock()
		if n.free > inject {
			inject = n.free
		}
		occupancy := s * p.GB
		if p.G > occupancy {
			occupancy = p.G
		}
		n.free = inject + occupancy
		n.mu.Unlock()
	}
	pkt.arrival = inject + s*p.GB + p.L
	pkt.recvO = p.O
	// Eager data lands in a bounce buffer and is copied out at match
	// time; rendezvous payloads go straight to the posted buffer. The
	// copy is charged at the node's memcpy bandwidth (the Self link's
	// per-byte cost). This asymmetry is what creates the
	// eager/rendezvous crossover (experiment F12).
	if pkt.kind == kindData {
		pkt.recvO += s * f.links.Self.GB
	}
	pkt.src = src

	// Sender CPU is busy for overhead plus injection of the payload.
	from.clock = now + p.O + s*p.GB

	pkt.data = clonePayload(pkt.data)
	if !to.box.put(pkt) {
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

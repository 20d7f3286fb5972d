// Package transport provides the byte-moving layer under the
// message-passing runtime (internal/mp). Two interchangeable fabrics
// are provided:
//
//   - InProc: ranks are goroutines in one process exchanging packets
//     through lock-protected mailboxes; timing is wall-clock. This is the
//     fast substrate for correctness tests and shared-memory runs.
//   - Sim: like InProc, but every packet is timestamped using a
//     cluster.Model (LogGP per path class, NIC egress contention) and
//     each endpoint carries a virtual clock. Benchmarks read virtual
//     time, so µs-scale fabric behaviour is reproduced without sleeping.
//
// FaultyFabric wraps either one to inject send failures in tests.
//
// The mp layer sees only the Endpoint interface and is agnostic to which
// fabric is underneath.
package transport

import (
	"errors"
	"sync"
)

// PacketType discriminates wire-level packet kinds. The rendezvous
// protocol types mirror a real MPI implementation: large sends announce
// themselves (RTS), the receiver grants (CTS) once a matching receive is
// posted, and only then does the payload move (RndvData).
type PacketType uint8

const (
	// Data is an eager message carrying its full payload.
	Data PacketType = iota
	// RTS (request-to-send) announces a rendezvous message; no payload.
	RTS
	// CTS (clear-to-send) grants a rendezvous transfer; no payload.
	CTS
	// RndvData carries the payload of a granted rendezvous transfer.
	RndvData
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	switch t {
	case Data:
		return "DATA"
	case RTS:
		return "RTS"
	case CTS:
		return "CTS"
	case RndvData:
		return "RNDV"
	default:
		return "?"
	}
}

// Packet is one unit of delivery between endpoints. Data/RTS carry the
// sender's (Src, Tag); CTS/RndvData are matched by Seq alone. For the
// Sim fabric, Arrival is the virtual time (seconds) at which the packet
// reaches the receiver and RecvO the receiver-side CPU overhead to
// charge; both are zero on real-time fabrics.
//
// Data of a received packet is a pooled buffer owned by the receiving
// rank: it copies the bytes out, hands the buffer back with Release, and
// never retains or reads the slice after that.
type Packet struct {
	Type    PacketType
	Src     int
	Tag     int
	Ctx     uint64 // communicator context id (0 = world)
	Seq     uint64
	Size    int // payload size announced by RTS (Data/RndvData use len(Data))
	Data    []byte
	Arrival float64
	RecvO   float64
}

// Endpoint is one rank's attachment to a fabric.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks on the fabric.
	Size() int
	// Send delivers pkt to dst. Every fabric copies pkt.Data before
	// returning, so the caller still owns its slice and may reuse it
	// as soon as Send returns; an empty payload arrives as nil. Send
	// never blocks on the receiver; mailboxes are unbounded.
	Send(dst int, pkt Packet) error
	// Recv returns the next incoming packet, blocking if block is
	// true. ok is false if no packet is available (non-blocking) or
	// the endpoint is closed.
	Recv(block bool) (pkt Packet, ok bool, err error)
	// Now returns this rank's current time in seconds: wall-clock time
	// for real fabrics, the rank's virtual clock for Sim.
	Now() float64
	// AdvanceTo moves the rank's virtual clock forward to t if t is
	// later than the current clock. No-op on real-time fabrics.
	AdvanceTo(t float64)
	// AddDelay charges dt seconds of local work to the rank's virtual
	// clock. No-op on real-time fabrics; benchmarks use it to model
	// compute phases.
	AddDelay(dt float64)
	// Close detaches the endpoint. Recv on a closed endpoint returns
	// ok=false.
	Close() error
}

// ErrClosed is returned by Send on a closed endpoint or fabric.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrBadRank is returned when a destination rank is out of range.
var ErrBadRank = errors.New("transport: rank out of range")

// mailbox is an unbounded FIFO of packets with blocking dequeue. It is
// unbounded on purpose: MPI eager sends must not block the sender on a
// slow receiver (flow control above would deadlock correct programs).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Packet
	head   int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(p Packet) bool {
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

func (m *mailbox) get(block bool) (Packet, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head >= len(m.queue) && !m.closed {
		if !block {
			return Packet{}, false
		}
		m.cond.Wait()
	}
	if m.head >= len(m.queue) {
		return Packet{}, false // closed and drained
	}
	p := m.queue[m.head]
	m.queue[m.head] = Packet{} // release payload reference
	m.head++
	// Compact occasionally so the slice doesn't grow without bound.
	if m.head > 64 && m.head*2 >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = Packet{}
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

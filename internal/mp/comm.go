package mp

import (
	"errors"
	"fmt"
)

// Comm is a rank's handle on the world of one Run: point-to-point
// operations, collectives, the clock, and the rank's protocol state —
// the matching queues, the rendezvous tracking and its place on the
// fabric. Run passes one to each rank's body; it is confined to the
// goroutine Run started it on.
type Comm struct {
	fab  *fabric
	rank int
	cfg  Config

	seq        uint64              // per-sender sequence for rendezvous
	unexpected []packet            // unmatched Data/RTS packets, arrival order
	posted     []*Request          // posted receives, post order
	pendSends  map[uint64]*Request // rendezvous sends awaiting CTS, by own seq
	rndvRecvs  map[rndvKey]*Request
	collEpoch  uint64 // collective invocation counter
	sizeOnly   bool   // inside SizeOnly: sends carry lengths, not bytes
	stats      OpStats
	scratch    []float64 // reduction temporaries, see (*Comm).tmp
}

func newComm(fab *fabric, rank int, cfg Config) *Comm {
	return &Comm{
		fab:       fab,
		rank:      rank,
		cfg:       cfg,
		pendSends: make(map[uint64]*Request),
		rndvRecvs: make(map[rndvKey]*Request),
	}
}

// tmp returns n float64s of reduction scratch with unspecified contents,
// valid until the next tmp call on this rank: an algorithm that needs
// two live temporaries takes both in one call. Callers only ever read
// elements a copy or a receive has just written.
func (c *Comm) tmp(n int) []float64 {
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	return c.scratch[:n]
}

type rndvKey struct {
	src int
	seq uint64
}

// Rank returns this rank's id, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the Run.
func (c *Comm) Size() int { return len(c.fab.ports) }

// Time returns the rank's virtual clock in seconds. Benchmark loops
// difference it.
func (c *Comm) Time() float64 { return c.fab.now(c.rank) }

// Compute charges dt seconds of local computation to the rank's virtual
// clock. Benchmarks use it to model compute phases between
// communication on the simulated platform.
func (c *Comm) Compute(dt float64) { c.fab.addDelay(c.rank, dt) }

// SizeOnly runs f with this rank's messages reduced to their lengths,
// for kernels whose only output is virtual time. Receives of messages
// sent inside it keep Status, errors and timing but not bytes: buffers
// keep what they held (a rendezvous payload follows its Isend's region)
// and reductions skip their arithmetic. Reduce real values after f.
func (c *Comm) SizeOnly(f func() error) error {
	defer func(prev bool) { c.sizeOnly = prev }(c.sizeOnly)
	c.sizeOnly = true
	return f()
}

// Status describes a completed receive.
type Status struct {
	Count int // bytes delivered
}

// Request is a nonblocking operation handle.
type Request struct {
	c              *Comm
	done           bool
	err            error
	buf            []byte  // the receive's destination or the send's payload (nil if size-only)
	arrival, recvO float64 // charged at Wait; a send's arrival is the end of its injection

	// Receive-side state.
	src, tag int
	n        int
	post     float64 // the clock when the receive was posted

	// Send-side state.
	rt   route
	slot float64 // the payload's booked start on the egress lane
	size int     // the payload's length
}

// Wait drives progress until the operation completes, returning the
// receive status (zero for sends).
func (r *Request) Wait() (Status, error) {
	if err := r.c.waitFor(r); err != nil {
		return Status{}, err
	}
	return Status{Count: r.n}, r.err
}

// ErrTruncated is returned when a message is longer than the posted
// receive buffer (the analogue of MPI_ERR_TRUNCATE).
var ErrTruncated = errors.New("mp: message truncated: receive buffer too small")

// ErrClosed is returned by a send into, or a wait on, a fabric that has
// shut down (typically because another rank failed).
var ErrClosed = errors.New("mp: fabric closed")

func (c *Comm) checkPeer(r int) error {
	if r < 0 || r >= c.Size() {
		return fmt.Errorf("mp: peer rank %d out of [0,%d)", r, c.Size())
	}
	return nil
}

func (c *Comm) checkUserTag(tag int) error {
	if tag < 0 {
		return fmt.Errorf("mp: user tag %d must be >= 0", tag)
	}
	return nil
}

// Send sends buf to rank dst with the given tag, blocking until the
// buffer may be reused (eager: immediately; rendezvous: after transfer).
func (c *Comm) Send(dst, tag int, buf []byte) error {
	if err := c.checkUserTag(tag); err != nil {
		return err
	}
	return c.sendInternal(dst, tag, buf)
}

// sendInternal is Send without the user-tag check; collectives use
// negative tags.
func (c *Comm) sendInternal(dst, tag int, buf []byte) error {
	req, err := c.isendInternal(dst, tag, buf)
	if err != nil {
		return err
	}
	return c.waitFor(req)
}

// Isend starts a nonblocking send. The caller must not modify buf until
// the returned request completes.
func (c *Comm) Isend(dst, tag int, buf []byte) (*Request, error) {
	if err := c.checkUserTag(tag); err != nil {
		return nil, err
	}
	return c.isendInternal(dst, tag, buf)
}

func (c *Comm) isendInternal(dst, tag int, buf []byte) (*Request, error) {
	if err := c.checkPeer(dst); err != nil {
		return nil, err
	}
	data := buf // what travels: nothing inside SizeOnly
	if c.sizeOnly {
		data = nil
	}
	rt, now := c.fab.route(c.rank, dst), c.Time()
	slot := c.fab.book(rt, now+rt.O, len(buf))
	eager := c.cfg.eager()
	if eager >= 0 && len(buf) <= eager {
		// Eager: the fabric copies the payload; the send is
		// complete (buffered) as soon as the packet is queued, and
		// the CPU is busy for the overhead and the injection.
		inject := rt.inject(len(buf))
		if err := c.fab.send(rt, packet{kind: kindData, tag: tag, data: data, n: len(buf), arrival: slot + inject}); err != nil {
			return nil, err
		}
		c.fab.addDelay(c.rank, rt.O+inject)
		c.stats.SendsEager++
		c.stats.BytesSent += uint64(len(buf))
		return &Request{c: c, done: true}, nil
	}
	// Rendezvous: announce with RTS; payload moves when CTS arrives.
	c.seq++
	req := &Request{c: c, rt: rt, slot: slot, buf: data, size: len(buf)}
	c.pendSends[c.seq] = req
	if err := c.fab.send(rt, packet{kind: kindRTS, tag: tag, seq: c.seq, arrival: now + rt.O}); err != nil {
		delete(c.pendSends, c.seq)
		return nil, err
	}
	c.stats.SendsRndv++
	c.stats.BytesSent += uint64(len(buf))
	return req, nil
}

// Recv receives a message from rank src with the given tag into buf,
// blocking until delivery.
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	if err := c.checkUserTag(tag); err != nil {
		return Status{}, err
	}
	return c.recvInternal(src, tag, buf)
}

// recvInternal is Recv without the user-tag check; collectives use
// negative tags.
func (c *Comm) recvInternal(src, tag int, buf []byte) (Status, error) {
	req, err := c.irecvInternal(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	if err := c.checkUserTag(tag); err != nil {
		return nil, err
	}
	return c.irecvInternal(src, tag, buf)
}

func (c *Comm) irecvInternal(src, tag int, buf []byte) (*Request, error) {
	if err := c.checkPeer(src); err != nil {
		return nil, err
	}
	req := &Request{c: c, src: src, tag: tag, buf: buf, post: c.Time()}
	c.postRecv(req)
	return req, nil
}

// SendRecv performs a combined send and receive, safe against the
// head-to-head deadlock that two blocking Sends would cause.
func (c *Comm) SendRecv(dst, sendTag int, sendBuf []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	if err := c.checkUserTag(sendTag); err != nil {
		return Status{}, err
	}
	if err := c.checkUserTag(recvTag); err != nil {
		return Status{}, err
	}
	return c.sendRecvInternal(dst, sendTag, sendBuf, src, recvTag, recvBuf)
}

func (c *Comm) sendRecvInternal(dst, sendTag int, sendBuf []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	rreq, err := c.irecvInternal(src, recvTag, recvBuf)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.isendInternal(dst, sendTag, sendBuf)
	if err != nil {
		return Status{}, err
	}
	if err := c.waitFor(sreq); err != nil {
		return Status{}, err
	}
	return rreq.Wait()
}

// --- matching and progress engine ---

// matches reports whether a posted receive r accepts a packet with the
// envelope (src, tag).
func (r *Request) matches(src, tag int) bool { return r.src == src && r.tag == tag }

// postRecv first searches the unexpected queue in arrival order, then
// appends the request to the posted list.
func (c *Comm) postRecv(req *Request) {
	for i, pkt := range c.unexpected {
		if !req.matches(pkt.src, pkt.tag) {
			continue
		}
		c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
		c.stats.MatchUnexp++
		switch pkt.kind {
		case kindData:
			c.deliver(req, pkt)
		case kindRTS:
			c.grantRndv(req, pkt)
		}
		return
	}
	c.posted = append(c.posted, req)
}

// matchPosted removes and returns the first posted receive matching the
// envelope, or nil.
func (c *Comm) matchPosted(src, tag int) *Request {
	for i, req := range c.posted {
		if req.matches(src, tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// deliver copies the packet's payload, if any, into the receive buffer
// and completes the request. It records the packet's arrival and
// receive overhead on the request, and waitFor charges them when the
// program waits on it: a receive costs virtual time at its Wait, a
// program point of its own rank, not whenever this rank happened to pull
// the packet off the fabric, which depends on goroutine arrival order.
func (c *Comm) deliver(req *Request, pkt packet) {
	req.arrival, req.recvO = pkt.arrival, pkt.recvO
	copy(req.buf, pkt.data)
	release(pkt.data) // copied out; nothing below reads it
	req.n = min(pkt.n, len(req.buf))
	if pkt.n > len(req.buf) {
		req.err = ErrTruncated
	}
	req.done = true
	c.stats.Recvs++
	c.stats.BytesRecv += uint64(req.n)
}

// grantRndv answers a matched RTS with a CTS and parks the request until
// the payload arrives. The CTS leaves once both the RTS and the receive
// are there, timed from the request, so the grant costs the clock
// nothing and does not depend on when this rank pulled the RTS.
func (c *Comm) grantRndv(req *Request, pkt packet) {
	key := rndvKey{src: pkt.src, seq: pkt.seq}
	c.rndvRecvs[key] = req
	cts := packet{kind: kindCTS, seq: pkt.seq, arrival: max(req.post, pkt.arrival) + pkt.recvO}
	if err := c.fab.send(c.fab.route(c.rank, pkt.src), cts); err != nil {
		req.err = err
		req.done = true
		delete(c.rndvRecvs, key)
	}
}

// handle dispatches one incoming packet through the protocol state
// machine.
func (c *Comm) handle(pkt packet) error {
	switch pkt.kind {
	case kindData, kindRTS:
		req := c.matchPosted(pkt.src, pkt.tag)
		if req == nil {
			c.unexpected = append(c.unexpected, pkt)
			break
		}
		c.stats.MatchPosted++
		if pkt.kind == kindData {
			c.deliver(req, pkt)
		} else {
			c.grantRndv(req, pkt)
		}
	case kindCTS:
		req, ok := c.pendSends[pkt.seq]
		if !ok {
			return fmt.Errorf("mp: rank %d: CTS for unknown seq %d", c.rank, pkt.seq)
		}
		delete(c.pendSends, pkt.seq)
		// The payload leaves in its booked slot, or one overhead at
		// each end after the grant; Wait takes the end of injection.
		req.arrival = max(req.slot, pkt.arrival+pkt.recvO+req.rt.O) + req.rt.inject(req.size)
		req.err = c.fab.send(req.rt, packet{kind: kindRndv, seq: pkt.seq, data: req.buf, n: req.size, arrival: req.arrival})
		req.buf = nil
		req.done = true
	case kindRndv:
		key := rndvKey{src: pkt.src, seq: pkt.seq}
		req, ok := c.rndvRecvs[key]
		if !ok {
			return fmt.Errorf("mp: rank %d: rendezvous data for unknown %v", c.rank, key)
		}
		delete(c.rndvRecvs, key)
		c.deliver(req, pkt)
	default:
		return fmt.Errorf("mp: rank %d: unknown packet kind %d", c.rank, pkt.kind)
	}
	return nil
}

// waitFor drives progress until req completes: it pulls packets off the
// fabric one at a time, blocking, and handles each. It then charges a
// delivered receive's arrival and overhead to the clock, once.
func (c *Comm) waitFor(req *Request) error {
	for !req.done {
		pkt, ok := c.fab.recv(c.rank)
		if !ok {
			return ErrClosed
		}
		if err := c.handle(pkt); err != nil {
			return err
		}
	}
	c.fab.advanceTo(c.rank, req.arrival)
	c.fab.addDelay(c.rank, req.recvO)
	req.recvO = 0
	return req.err
}

// WaitAll completes every request, returning the first error.
func (c *Comm) WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

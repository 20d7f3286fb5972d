package mp

import (
	"errors"
	"fmt"
)

// engine is the per-rank protocol state shared by every communicator
// derived from the same Run: the matching queues, the rendezvous
// tracking, and the rank's place on the fabric. It is confined to the
// rank's goroutine.
type engine struct {
	fab  *fabric
	self int // global rank
	cfg  Config

	seq        uint64              // per-sender sequence for rendezvous
	unexpected []packet            // unmatched Data/RTS packets, arrival order
	posted     []*Request          // posted receives, post order
	pendSends  map[uint64]*Request // rendezvous sends awaiting CTS, by own seq
	rndvRecvs  map[rndvKey]*Request
	stats      OpStats
	scratch    []float64 // reduction temporaries, see (*engine).tmp
}

// tmp returns n float64s of reduction scratch with unspecified contents,
// valid until the next tmp call on this rank: an algorithm that needs
// two live temporaries takes both in one call. Callers only ever read
// elements a copy or a receive has just written.
func (eng *engine) tmp(n int) []float64 {
	if cap(eng.scratch) < n {
		eng.scratch = make([]float64, n)
	}
	return eng.scratch[:n]
}

type rndvKey struct {
	src int // global rank
	seq uint64
}

// Comm is a communicator: a rank's membership in an ordered group, with
// point-to-point operations, collectives, and the clock. The world
// communicator is passed to Run's body; Split derives sub-communicators.
// A Comm is confined to the goroutine Run started it on.
type Comm struct {
	eng       *engine
	ctx       uint64 // context id separating communicators' traffic
	rank      int    // rank within this communicator
	ranks     []int  // global rank of each member; ranks[rank] == self
	inv       []int  // global rank -> rank here or -1; nil on world (identity)
	collEpoch uint64 // collective invocation counter
	splitSeq  uint64 // Split invocation counter (for child ctx derivation)
}

func newComm(fab *fabric, rank int, cfg Config) *Comm {
	eng := &engine{
		fab:       fab,
		self:      rank,
		cfg:       cfg,
		pendSends: make(map[uint64]*Request),
		rndvRecvs: make(map[rndvKey]*Request),
	}
	ranks := make([]int, len(fab.ports))
	for i := range ranks {
		ranks[i] = i
	}
	return &Comm{eng: eng, ctx: 0, rank: rank, ranks: ranks}
}

// Rank returns this rank's id within the communicator, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// GlobalRank returns this rank's id in the world communicator.
func (c *Comm) GlobalRank() int { return c.eng.self }

// Time returns the rank's virtual clock in seconds. Benchmark loops
// difference it.
func (c *Comm) Time() float64 { return c.eng.fab.now(c.eng.self) }

// Compute charges dt seconds of local computation to the rank's virtual
// clock. Benchmarks use it to model compute phases between
// communication on the simulated platform.
func (c *Comm) Compute(dt float64) { c.eng.fab.addDelay(c.eng.self, dt) }

// global translates a communicator rank to a global rank.
func (c *Comm) global(r int) int { return c.ranks[r] }

// localOf translates a global rank to this communicator's rank, or -1.
func (c *Comm) localOf(g int) int {
	if c.inv == nil {
		return g
	}
	return c.inv[g]
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes delivered
}

// Request is a nonblocking operation handle.
type Request struct {
	c      *Comm
	done   bool
	err    error
	isSend bool
	ctx    uint64

	// Receive-side state. src is a communicator rank or AnySource; the
	// matching engine compares global ranks, so srcGlobal holds the
	// translated value (or AnySource).
	src, tag             int
	srcGlobal            int
	buf                  []byte
	n                    int
	actualSrc, actualTag int // actualSrc is a communicator rank

	// Send-side state.
	seq  uint64
	dst  int // global rank
	data []byte
}

// Wait drives progress until the operation completes, returning the
// receive status (zero for sends).
func (r *Request) Wait() (Status, error) {
	if err := r.c.waitFor(r); err != nil {
		return Status{}, err
	}
	return r.status(), r.err
}

func (r *Request) status() Status {
	if r.isSend {
		return Status{}
	}
	return Status{Source: r.actualSrc, Tag: r.actualTag, Count: r.n}
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
	gdst := c.global(dst)
	eng := c.eng
	eager := eng.cfg.eager()
	if eager >= 0 && len(buf) <= eager {
		// Eager: the fabric copies the payload; the send is
		// complete (buffered) as soon as the packet is queued.
		err := eng.fab.send(eng.self, gdst, packet{
			kind: kindData,
			tag:  tag,
			ctx:  c.ctx,
			data: buf,
		})
		if err != nil {
			return nil, err
		}
		eng.stats.SendsEager++
		eng.stats.BytesSent += uint64(len(buf))
		return &Request{c: c, done: true, isSend: true, dst: gdst}, nil
	}
	// Rendezvous: announce with RTS; payload moves when CTS arrives.
	eng.seq++
	req := &Request{c: c, isSend: true, seq: eng.seq, dst: gdst, data: buf, ctx: c.ctx}
	eng.pendSends[eng.seq] = req
	err := eng.fab.send(eng.self, gdst, packet{
		kind: kindRTS,
		tag:  tag,
		ctx:  c.ctx,
		seq:  eng.seq,
	})
	if err != nil {
		delete(eng.pendSends, eng.seq)
		return nil, err
	}
	eng.stats.SendsRndv++
	eng.stats.BytesSent += uint64(len(buf))
	return req, nil
}

// Recv receives a message from src (or AnySource) with tag (or AnyTag)
// into buf, blocking until delivery.
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	req, err := c.Irecv(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// Irecv posts a nonblocking receive.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	srcGlobal := AnySource
	if src != AnySource {
		if err := c.checkPeer(src); err != nil {
			return nil, err
		}
		srcGlobal = c.global(src)
	}
	req := &Request{c: c, src: src, srcGlobal: srcGlobal, tag: tag, buf: buf, ctx: c.ctx}
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
	rreq, err := c.Irecv(src, recvTag, recvBuf)
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

// matches reports whether a posted receive req accepts a packet with the
// given envelope (global source rank, tag, context).
func (r *Request) matches(src, tag int, ctx uint64) bool {
	if r.ctx != ctx {
		return false
	}
	if r.srcGlobal != AnySource && r.srcGlobal != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}

// postRecv first searches the unexpected queue in arrival order, then
// appends the request to the posted list.
func (c *Comm) postRecv(req *Request) {
	eng := c.eng
	for i, pkt := range eng.unexpected {
		if !req.matches(pkt.src, pkt.tag, pkt.ctx) {
			continue
		}
		eng.unexpected = append(eng.unexpected[:i], eng.unexpected[i+1:]...)
		eng.stats.MatchUnexp++
		switch pkt.kind {
		case kindData:
			c.deliver(req, pkt)
		case kindRTS:
			c.grantRndv(req, pkt)
		}
		return
	}
	eng.posted = append(eng.posted, req)
}

// matchPosted removes and returns the first posted receive matching the
// envelope, or nil.
func (eng *engine) matchPosted(src, tag int, ctx uint64) *Request {
	for i, req := range eng.posted {
		if req.matches(src, tag, ctx) {
			eng.posted = append(eng.posted[:i], eng.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// deliver copies a payload into the receive buffer and completes the
// request. The envelope is taken from the packet for eager data; for
// rendezvous payloads (whose packets carry no tag) it was already
// recorded from the RTS by grantRndv. Virtual time is charged here — at
// match time — not when the packet was pulled off the fabric: a packet
// sitting in the unexpected queue is NIC-buffered data the CPU has not
// touched yet, and charging its (possibly far-future) arrival early
// would teleport the rank's clock forward.
func (c *Comm) deliver(req *Request, pkt packet) {
	c.applyClock(pkt)
	req.n = copy(req.buf, pkt.data)
	if len(pkt.data) > len(req.buf) {
		req.err = ErrTruncated
	}
	release(pkt.data) // copied out; nothing below reads it
	if pkt.kind == kindData {
		req.actualSrc = req.c.localOf(pkt.src)
		req.actualTag = pkt.tag
	}
	req.done = true
	c.eng.stats.Recvs++
	c.eng.stats.BytesRecv += uint64(req.n)
}

// grantRndv answers a matched RTS with a CTS and parks the request until
// the payload arrives. As in deliver, the RTS's arrival time is charged
// now, at match time.
func (c *Comm) grantRndv(req *Request, pkt packet) {
	c.applyClock(pkt)
	req.actualSrc = req.c.localOf(pkt.src)
	req.actualTag = pkt.tag
	eng := c.eng
	eng.rndvRecvs[rndvKey{src: pkt.src, seq: pkt.seq}] = req
	if err := eng.fab.send(eng.self, pkt.src, packet{kind: kindCTS, seq: pkt.seq, ctx: pkt.ctx}); err != nil {
		req.err = err
		req.done = true
		delete(eng.rndvRecvs, rndvKey{src: pkt.src, seq: pkt.seq})
	}
}

// applyClock charges packet arrival and receive overhead to the rank's
// virtual clock.
func (c *Comm) applyClock(pkt packet) {
	c.eng.fab.advanceTo(c.eng.self, pkt.arrival)
	c.eng.fab.addDelay(c.eng.self, pkt.recvO)
}

// handle dispatches one incoming packet through the protocol state
// machine.
func (c *Comm) handle(pkt packet) error {
	eng := c.eng
	switch pkt.kind {
	case kindData:
		if req := eng.matchPosted(pkt.src, pkt.tag, pkt.ctx); req != nil {
			eng.stats.MatchPosted++
			req.c.deliver(req, pkt)
		} else {
			eng.unexpected = append(eng.unexpected, pkt)
		}
	case kindRTS:
		if req := eng.matchPosted(pkt.src, pkt.tag, pkt.ctx); req != nil {
			eng.stats.MatchPosted++
			req.c.grantRndv(req, pkt)
		} else {
			eng.unexpected = append(eng.unexpected, pkt)
		}
	case kindCTS:
		c.applyClock(pkt) // the sender acts on the grant immediately
		req, ok := eng.pendSends[pkt.seq]
		if !ok {
			return fmt.Errorf("mp: rank %d: CTS for unknown seq %d", c.GlobalRank(), pkt.seq)
		}
		delete(eng.pendSends, pkt.seq)
		err := eng.fab.send(eng.self, req.dst, packet{
			kind: kindRndv,
			seq:  pkt.seq,
			ctx:  pkt.ctx,
			data: req.data,
		})
		req.data = nil
		req.err = err
		req.done = true
	case kindRndv:
		key := rndvKey{src: pkt.src, seq: pkt.seq}
		req, ok := eng.rndvRecvs[key]
		if !ok {
			return fmt.Errorf("mp: rank %d: rendezvous data for unknown %v", c.GlobalRank(), key)
		}
		delete(eng.rndvRecvs, key)
		req.c.deliver(req, pkt)
	default:
		return fmt.Errorf("mp: rank %d: unknown packet kind %d", c.GlobalRank(), pkt.kind)
	}
	return nil
}

// waitFor drives progress until req completes: it pulls packets off the
// fabric one at a time, blocking, and handles each.
func (c *Comm) waitFor(req *Request) error {
	for !req.done {
		pkt, ok := c.eng.fab.recv(c.eng.self)
		if !ok {
			return ErrClosed
		}
		if err := c.handle(pkt); err != nil {
			return err
		}
	}
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

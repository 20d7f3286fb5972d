package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPFabric connects n ranks (still goroutines in one process, like an
// MPI job on one node) through real loopback TCP connections, so the
// full kernel socket path — syscalls, copies, Nagle-off small writes —
// is exercised. Connections are unidirectional and established lazily:
// rank a's first send to b dials b's listener and that connection carries
// only a→b traffic, which keeps per-(src,dst) FIFO ordering trivially.
//
// Wire format, little-endian:
//
//	[1B type][4B src][8B tag][8B ctx][8B seq][4B announced size][4B payload len][payload]
type TCPFabric struct {
	n         int
	boxes     []*mailbox
	listeners []net.Listener
	addrs     []string
	start     time.Time

	mu     sync.Mutex
	closed bool
	conns  []net.Conn // all accepted/dialed conns, for Close
	wg     sync.WaitGroup
}

const tcpHeaderLen = 1 + 4 + 8 + 8 + 8 + 4 + 4

// NewTCP creates a loopback TCP fabric for n ranks.
func NewTCP(n int) (*TCPFabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: fabric size %d", n)
	}
	f := &TCPFabric{
		n:         n,
		boxes:     make([]*mailbox, n),
		listeners: make([]net.Listener, n),
		addrs:     make([]string, n),
		start:     time.Now(),
	}
	for i := 0; i < n; i++ {
		f.boxes[i] = newMailbox()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		f.listeners[i] = l
		f.addrs[i] = l.Addr().String()
		f.wg.Add(1)
		go f.acceptLoop(i, l)
	}
	return f, nil
}

func (f *TCPFabric) acceptLoop(rank int, l net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		f.track(conn)
		f.wg.Add(1)
		go f.readLoop(rank, conn)
	}
}

func (f *TCPFabric) track(c net.Conn) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		c.Close()
		return
	}
	f.conns = append(f.conns, c)
	f.mu.Unlock()
}

func (f *TCPFabric) readLoop(rank int, conn net.Conn) {
	defer f.wg.Done()
	r := bufio.NewReaderSize(conn, 1<<16)
	var hdr [tcpHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		pkt := Packet{
			Type: PacketType(hdr[0]),
			Src:  int(int32(binary.LittleEndian.Uint32(hdr[1:5]))),
			Tag:  int(int64(binary.LittleEndian.Uint64(hdr[5:13]))),
			Ctx:  binary.LittleEndian.Uint64(hdr[13:21]),
			Seq:  binary.LittleEndian.Uint64(hdr[21:29]),
			Size: int(int32(binary.LittleEndian.Uint32(hdr[29:33]))),
		}
		dataLen := int(binary.LittleEndian.Uint32(hdr[33:37]))
		if dataLen > 0 {
			pkt.Data = getPayload(dataLen)
			if _, err := io.ReadFull(r, pkt.Data); err != nil {
				return
			}
		}
		if !f.boxes[rank].put(pkt) {
			return
		}
	}
}

// Endpoint returns rank's endpoint.
func (f *TCPFabric) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= f.n {
		return nil, ErrBadRank
	}
	return &tcpEP{
		f:     f,
		rank:  rank,
		peers: make([]*tcpPeer, f.n),
	}, nil
}

// Close shuts the whole fabric down: listeners, connections, mailboxes.
func (f *TCPFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()

	for _, l := range f.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	for _, b := range f.boxes {
		b.close()
	}
	f.wg.Wait()
	return nil
}

type tcpPeer struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
}

type tcpEP struct {
	f     *TCPFabric
	rank  int
	mu    sync.Mutex // guards lazy peer creation
	peers []*tcpPeer
}

func (e *tcpEP) Rank() int { return e.rank }
func (e *tcpEP) Size() int { return e.f.n }

func (e *tcpEP) peer(dst int) (*tcpPeer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.peers[dst]; p != nil {
		return p, nil
	}
	conn, err := net.Dial("tcp", e.f.addrs[dst])
	if err != nil {
		return nil, fmt.Errorf("transport: dial rank %d: %w", dst, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency benchmarks need Nagle off
	}
	e.f.track(conn)
	p := &tcpPeer{c: conn, w: bufio.NewWriterSize(conn, 1<<16)}
	e.peers[dst] = p
	return p, nil
}

func (e *tcpEP) Send(dst int, pkt Packet) error {
	if dst < 0 || dst >= e.f.n {
		return ErrBadRank
	}
	p, err := e.peer(dst)
	if err != nil {
		return err
	}
	var hdr [tcpHeaderLen]byte
	hdr[0] = byte(pkt.Type)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(int32(e.rank)))
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(int64(pkt.Tag)))
	binary.LittleEndian.PutUint64(hdr[13:21], pkt.Ctx)
	binary.LittleEndian.PutUint64(hdr[21:29], pkt.Seq)
	binary.LittleEndian.PutUint32(hdr[29:33], uint32(int32(pkt.Size)))
	binary.LittleEndian.PutUint32(hdr[33:37], uint32(len(pkt.Data)))

	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.w.Write(hdr[:]); err != nil {
		return e.sendErr(err)
	}
	if len(pkt.Data) > 0 {
		if _, err := p.w.Write(pkt.Data); err != nil {
			return e.sendErr(err)
		}
	}
	if err := p.w.Flush(); err != nil {
		return e.sendErr(err)
	}
	return nil
}

func (e *tcpEP) sendErr(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (e *tcpEP) Recv(block bool) (Packet, bool, error) {
	p, ok := e.f.boxes[e.rank].get(block)
	return p, ok, nil
}

func (e *tcpEP) Now() float64      { return time.Since(e.f.start).Seconds() }
func (e *tcpEP) AdvanceTo(float64) {}
func (e *tcpEP) AddDelay(float64)  {}

func (e *tcpEP) Close() error {
	e.f.boxes[e.rank].close()
	return nil
}

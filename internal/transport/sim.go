package transport

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// SimFabric is the virtual-time fabric. Packets move through in-process
// mailboxes exactly as on InProcFabric, but every packet is stamped with
// a modeled arrival time derived from the platform's LogGP parameters,
// and each endpoint owns a virtual clock that the mp layer advances as
// messages complete. Benchmarks built on this fabric report virtual
// seconds, reproducing the latency/bandwidth structure of the modeled
// machine without any sleeping.
//
// Timing rules, for a packet of s payload bytes from rank a to rank b
// over the link class with parameters (L, o, g, G):
//
//	inject = max(clock_a + o, nicFree_a)    (NIC shared per node, inter-node only)
//	arrive = inject + s*G + L
//	nicFree_a = inject + max(g, s*G)
//	clock_a += o + s*G                       (sender busy for overhead+copy)
//	clock_b = max(clock_b, arrive) + o       (applied by mp on completion)
//
// The receiver-side o is carried in the packet (RecvO) because the
// receiving endpoint does not know the path class.
type SimFabric struct {
	model  *cluster.Model
	n      int
	boxes  []*mailbox
	clocks []simClock
	nics   []nic // one per node: egress serialization point
	nodes  []int // node of each rank
	paths  [][]cluster.LogGP
}

type simClock struct {
	mu sync.Mutex
	t  float64
}

type nic struct {
	mu   sync.Mutex
	free float64
}

// NewSim creates a virtual-time fabric for n ranks on the given platform
// model. n must not exceed the model's core count.
func NewSim(n int, model *cluster.Model) (*SimFabric, error) {
	if model == nil {
		return nil, fmt.Errorf("transport: Sim fabric requires a cluster model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("transport: fabric size %d", n)
	}
	if n > model.Topo.TotalCores() {
		return nil, cluster.ErrTooManyRanks
	}
	f := &SimFabric{
		model:  model,
		n:      n,
		boxes:  make([]*mailbox, n),
		clocks: make([]simClock, n),
		nics:   make([]nic, model.Topo.Nodes),
		nodes:  make([]int, n),
		paths:  make([][]cluster.LogGP, n),
	}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	// Precompute placement and the path matrix so Send is just table
	// lookups.
	for a := 0; a < n; a++ {
		loc, err := model.Topo.Place(a, n, model.Placement)
		if err != nil {
			return nil, err
		}
		f.nodes[a] = loc.Node
		f.paths[a] = make([]cluster.LogGP, n)
		for b := 0; b < n; b++ {
			p, _, err := model.PathBetween(a, b, n)
			if err != nil {
				return nil, err
			}
			f.paths[a][b] = p
		}
	}
	return f, nil
}

// Endpoint returns rank's endpoint.
func (f *SimFabric) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= f.n {
		return nil, ErrBadRank
	}
	return &simEP{f: f, rank: rank}, nil
}

// Close shuts down every mailbox.
func (f *SimFabric) Close() error {
	for _, b := range f.boxes {
		b.close()
	}
	return nil
}

type simEP struct {
	f    *SimFabric
	rank int
}

func (e *simEP) Rank() int { return e.rank }
func (e *simEP) Size() int { return e.f.n }

func (e *simEP) Send(dst int, pkt Packet) error {
	if dst < 0 || dst >= e.f.n {
		return ErrBadRank
	}
	p := e.f.paths[e.rank][dst]
	s := float64(len(pkt.Data))

	clk := &e.f.clocks[e.rank]
	clk.mu.Lock()
	now := clk.t
	clk.mu.Unlock()

	inject := now + p.O
	srcNode, dstNode := e.f.nodes[e.rank], e.f.nodes[dst]
	if srcNode != dstNode {
		// Inter-node messages serialize through the node's NIC.
		n := &e.f.nics[srcNode]
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
	pkt.Arrival = inject + s*p.GB + p.L
	pkt.RecvO = p.O
	// Eager data lands in a bounce buffer and is copied out at match
	// time; rendezvous payloads (RndvData) go straight to the posted
	// buffer. The copy is charged at the node's memcpy bandwidth
	// (the Self link's per-byte cost). This asymmetry is what creates
	// the eager/rendezvous crossover (experiment F12).
	if pkt.Type == Data {
		pkt.RecvO += s * e.f.model.Links.Self.GB
	}
	pkt.Src = e.rank

	// Sender CPU is busy for overhead plus injection of the payload.
	clk.mu.Lock()
	t := now + p.O + s*p.GB
	if t > clk.t {
		clk.t = t
	}
	clk.mu.Unlock()

	pkt.Data = clonePayload(pkt.Data)
	if !e.f.boxes[dst].put(pkt) {
		return ErrClosed
	}
	return nil
}

func (e *simEP) Recv(block bool) (Packet, bool, error) {
	p, ok := e.f.boxes[e.rank].get(block)
	return p, ok, nil
}

func (e *simEP) Now() float64 {
	clk := &e.f.clocks[e.rank]
	clk.mu.Lock()
	defer clk.mu.Unlock()
	return clk.t
}

func (e *simEP) AdvanceTo(t float64) {
	clk := &e.f.clocks[e.rank]
	clk.mu.Lock()
	if t > clk.t {
		clk.t = t
	}
	clk.mu.Unlock()
}

func (e *simEP) AddDelay(dt float64) {
	if dt <= 0 {
		return
	}
	clk := &e.f.clocks[e.rank]
	clk.mu.Lock()
	clk.t += dt
	clk.mu.Unlock()
}

func (e *simEP) Close() error {
	e.f.boxes[e.rank].close()
	return nil
}

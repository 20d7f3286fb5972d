package transport

import (
	"fmt"
	"time"
)

// InProcFabric connects n ranks inside one process through shared
// mailboxes. Payloads are copied on Send (into a pooled buffer, see
// Release) so senders can immediately reuse their buffers (MPI
// buffered-send semantics for the eager path).
type InProcFabric struct {
	boxes []*mailbox
	start time.Time
}

// NewInProc creates a fabric for n ranks.
func NewInProc(n int) (*InProcFabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: fabric size %d", n)
	}
	f := &InProcFabric{boxes: make([]*mailbox, n), start: time.Now()}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	return f, nil
}

// Endpoint returns rank's endpoint.
func (f *InProcFabric) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= len(f.boxes) {
		return nil, ErrBadRank
	}
	return &inprocEP{f: f, rank: rank}, nil
}

// Close shuts down every mailbox.
func (f *InProcFabric) Close() error {
	for _, b := range f.boxes {
		b.close()
	}
	return nil
}

type inprocEP struct {
	f    *InProcFabric
	rank int
}

func (e *inprocEP) Rank() int { return e.rank }
func (e *inprocEP) Size() int { return len(e.f.boxes) }

func (e *inprocEP) Send(dst int, pkt Packet) error {
	if dst < 0 || dst >= len(e.f.boxes) {
		return ErrBadRank
	}
	pkt.Src = e.rank
	pkt.Data = clonePayload(pkt.Data)
	if !e.f.boxes[dst].put(pkt) {
		return ErrClosed
	}
	return nil
}

func (e *inprocEP) Recv(block bool) (Packet, bool, error) {
	p, ok := e.f.boxes[e.rank].get(block)
	return p, ok, nil
}

func (e *inprocEP) Now() float64 {
	return time.Since(e.f.start).Seconds()
}

func (e *inprocEP) AdvanceTo(float64) {}
func (e *inprocEP) AddDelay(float64)  {}

func (e *inprocEP) Close() error {
	e.f.boxes[e.rank].close()
	return nil
}

// Package mp is the message-passing runtime the benchmarks run on — the
// stand-in for MPI. It provides:
//
//   - SPMD launch: Run spawns n ranks as goroutines on a platform model,
//     over an in-process fabric that stamps every message with its
//     LogGP-modeled virtual time (fabric.go). Each rank books payloads
//     on its own egress lane: start = max(ready, lane) and lane = start +
//     k·max(g, s·G), with k the world's ranks on its node between nodes
//     and 1 within. That static share of the NIC is exact when all k
//     ranks stream and pessimistic when fewer do (an HPL panel
//     broadcast). A rank's clock and lane change only at its own program
//     points, so virtual time never depends on goroutine scheduling.
//   - Point-to-point: blocking Send/Recv, nonblocking Isend/Irecv with
//     Requests, combined SendRecv, and the MPI matching rules on an
//     exact (source, tag) envelope (FIFO per (src,dst), first-match
//     against posted receives, unexpected-message queue).
//   - Protocols: messages at or below the eager threshold are sent
//     eagerly (buffered); larger messages use rendezvous (RTS/CTS),
//     exactly the protocol split whose crossover the characterization
//     measures (experiment F12).
//   - Collectives: barrier, bcast, allgather(v) and alltoall(v) over
//     bytes, and allreduce over float64 with selectable classic
//     algorithms (experiment F6).
//   - Size-only regions (Comm.SizeOnly): messages carry lengths, not
//     bytes; buffers keep what they held and reductions skip arithmetic.
//     Their buffers may all be slices of one shared, never-touched
//     buffer (SizeOnlyBuf).
//
// Every rank holds one Comm, on the world of its Run; there are no
// sub-communicators.
//
// Progress is single-threaded per rank, as in most MPI implementations:
// a rank advances its pending operations only while it is inside an mp
// call. Programs that would deadlock under MPI's semantics (e.g. two
// ranks issuing large blocking sends to each other with no receives
// posted) deadlock here too — by design.
//
// The message path allocates nothing in steady state. A rank takes
// everything queued in its mailbox at once, under one lock, and handles
// the batch from its Comm's inbox in arrival order. The blocking calls
// (Send, Recv, SendRecv and every collective) keep their requests in two
// slots on the Comm, and every eager send of a rank returns one shared,
// already completed request, so a Request from Isend may be shared;
// only rendezvous Isends and Irecvs allocate one. Payloads in flight
// come from a pool.
package mp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// Internal collective tags live far below user tag space; user tags must
// be >= 0.
const collTagBase = -(1 << 20)

// DefaultEagerThreshold is the protocol switch point in bytes, matching
// the common MPI default for shared-memory BTLs.
const DefaultEagerThreshold = 8192

// Fabric names the network under a Run. There is one, Sim, and nothing
// reads Config.Fabric; the type and its value stay so that callers which
// spell the field out keep compiling.
type Fabric int

// Sim is the LogGP-timed in-process fabric (see fabric.go): packets carry
// virtual-time stamps from Config.Model, and Comm.Time returns virtual
// seconds.
const Sim Fabric = 0

// BcastAlgo selects the broadcast algorithm.
type BcastAlgo int

const (
	// BcastAuto picks binomial for small messages and
	// scatter-allgather for large ones.
	BcastAuto BcastAlgo = iota
	// BcastBinomial uses a binomial tree: ceil(log2 p) rounds, each
	// carrying the full message. Best at small sizes.
	BcastBinomial
	// BcastScatterAllgather scatters 1/p of the message along a
	// binomial tree and reassembles with a ring allgather (van de
	// Geijn). Best at large sizes.
	BcastScatterAllgather
	// BcastPipelineRing streams fixed-size chunks down the rank ring;
	// with enough chunks the cost approaches one message transfer time
	// regardless of p, at the price of a (p-2)-chunk pipeline fill.
	BcastPipelineRing
)

// AllreduceAlgo selects the allreduce algorithm.
type AllreduceAlgo int

const (
	// AllreduceAuto picks recursive doubling for small vectors and
	// Rabenseifner for large ones.
	AllreduceAuto AllreduceAlgo = iota
	// AllreduceRecursiveDoubling exchanges and combines full vectors
	// in log2 p rounds.
	AllreduceRecursiveDoubling
	// AllreduceRabenseifner does a reduce-scatter (recursive halving)
	// followed by an allgather (recursive doubling), moving 2(p-1)/p
	// of the data instead of log2(p) copies.
	AllreduceRabenseifner
	// AllreduceRing is the bandwidth-optimal ring: p-1 reduce-scatter
	// steps plus p-1 allgather steps.
	AllreduceRing
)

// Config configures a Run.
type Config struct {
	// Fabric is always Sim and is not read.
	Fabric Fabric
	// Model is the platform the ranks run on; required. Its topology
	// and placement put each rank on a core, and its links time every
	// message.
	Model *cluster.Model
	// EagerThreshold is the eager/rendezvous switch in bytes;
	// 0 means DefaultEagerThreshold, negative means "always rendezvous".
	EagerThreshold int
	// Bcast and Allreduce select collective algorithms.
	Bcast     BcastAlgo
	Allreduce AllreduceAlgo

	// sendHook, if set, is consulted before every packet a rank sends;
	// a non-nil error fails that send. Fault-injection tests set it.
	sendHook func(rank int) error
}

func (c Config) eager() int {
	switch {
	case c.EagerThreshold == 0:
		return DefaultEagerThreshold
	case c.EagerThreshold < 0:
		return -1 // every message takes the rendezvous path
	default:
		return c.EagerThreshold
	}
}

// ErrInvalidSize is returned by Run for a non-positive rank count.
var ErrInvalidSize = errors.New("mp: rank count must be >= 1")

// Run launches f on n ranks over the fabric of cfg.Model and blocks
// until every rank returns. It returns the first non-nil error (a panic
// in a rank is converted to an error). The fabric is torn down before
// Run returns.
func Run(n int, cfg Config, f func(c *Comm) error) error {
	if n < 1 {
		return ErrInvalidSize
	}
	fab, err := newFabric(n, cfg.Model)
	if err != nil {
		return err
	}
	fab.sendHook = cfg.sendHook
	defer fab.close()

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mp: rank %d panicked: %v", r, p)
				}
				// Abort-on-failure: a rank that exits with an error
				// tears the fabric down so peers blocked on it fail
				// with ErrClosed instead of hanging (the analogue of
				// MPI's job abort).
				if errs[r] != nil {
					fab.close()
				}
			}()
			errs[r] = f(newComm(fab, r, cfg))
		}(r)
	}
	wg.Wait()
	// Suppress the secondary ErrClosed failures caused by an abort so
	// the root cause is what callers see.
	var primary []error
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			primary = append(primary, err)
		}
	}
	if len(primary) > 0 {
		return errors.Join(primary...)
	}
	return errors.Join(errs...)
}

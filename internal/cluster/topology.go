// Package cluster models the hardware platform being characterized: the
// node/socket/core topology, the NUMA distance structure inside a node,
// and the LogGP parameters of each class of communication path. The
// original study measured a physical cluster; this package is the
// simulated stand-in. The message-passing runtime (internal/mp) places
// each rank with this model and times every message with its links, so
// that curve *shapes* (intra- vs inter-node gaps, bandwidth knees,
// contention) reproduce those of a real machine.
//
// The built-in platforms form a named preset registry (registry.go,
// one spec per preset in presets/*.json): Lookup resolves a preset name ("gige-8n", "ib-8n", "ib-64n",
// "smp-1n", "fat-1n", "bgp-64n") to a fresh Model, and Names/NamesWith
// enumerate it. Every Model derives Capability tags from its structure
// — CapMultiNode (an inter-node fabric exists), CapMemModel (an
// analytic memory hierarchy is attached), CapNUMA (that hierarchy has
// a local/remote split) — which internal/core experiments declare as
// requirements, so "which experiment runs on which platform" is
// decided by the registry, not by hardcoded models.
package cluster

import (
	"errors"
	"fmt"
)

// Topology describes the machine shape: how many nodes, sockets per node,
// and cores per socket. Ranks are mapped onto cores by a Placement.
type Topology struct {
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int
}

// Validate checks that all dimensions are positive.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.SocketsPerNode <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("cluster: invalid topology %+v", t)
	}
	return nil
}

// TotalCores returns the number of cores in the whole machine.
func (t Topology) TotalCores() int {
	return t.Nodes * t.SocketsPerNode * t.CoresPerSocket
}

// CoresPerNode returns the number of cores in one node.
func (t Topology) CoresPerNode() int { return t.SocketsPerNode * t.CoresPerSocket }

// String implements fmt.Stringer.
func (t Topology) String() string {
	return fmt.Sprintf("%d nodes x %d sockets x %d cores", t.Nodes, t.SocketsPerNode, t.CoresPerSocket)
}

// Location identifies a core within the machine.
type Location struct {
	Node   int
	Socket int
	Core   int
}

// Placement maps ranks onto cores. The two policies every MPI launcher
// offers are provided: block (fill a node before moving on) and cyclic
// (round-robin across nodes), because the choice changes which rank pairs
// share a node and therefore the measured latency distribution.
type Placement int

const (
	// Block fills each node's cores before moving to the next node
	// (a.k.a. "by core", the mpirun default).
	Block Placement = iota
	// Cyclic round-robins ranks across nodes ("by node").
	Cyclic
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ErrTooManyRanks is returned when more ranks than cores are placed.
var ErrTooManyRanks = errors.New("cluster: more ranks than cores")

// Place returns the Location of the given rank under placement p.
func (t Topology) Place(rank int, nranks int, p Placement) (Location, error) {
	if err := t.Validate(); err != nil {
		return Location{}, err
	}
	if rank < 0 || rank >= nranks {
		return Location{}, fmt.Errorf("cluster: rank %d out of [0,%d)", rank, nranks)
	}
	if nranks > t.TotalCores() {
		return Location{}, ErrTooManyRanks
	}
	var coreIdx int // flat core index within the machine
	switch p {
	case Block:
		coreIdx = rank
	case Cyclic:
		node := rank % t.Nodes
		slot := rank / t.Nodes
		coreIdx = node*t.CoresPerNode() + slot
	default:
		return Location{}, fmt.Errorf("cluster: unknown placement %v", p)
	}
	perNode := t.CoresPerNode()
	loc := Location{
		Node:   coreIdx / perNode,
		Socket: (coreIdx % perNode) / t.CoresPerSocket,
		Core:   coreIdx % t.CoresPerSocket,
	}
	return loc, nil
}

// PathClass classifies the communication path between two ranks; each
// class has its own LogGP parameters.
type PathClass int

const (
	// Self is a rank talking to itself (loopback copy).
	Self PathClass = iota
	// IntraSocket is two cores on the same socket (shared L3).
	IntraSocket
	// IntraNode is two sockets in the same node (QPI/HT hop).
	IntraNode
	// InterNode crosses the network fabric.
	InterNode
)

// String implements fmt.Stringer.
func (c PathClass) String() string {
	switch c {
	case Self:
		return "self"
	case IntraSocket:
		return "intra-socket"
	case IntraNode:
		return "intra-node"
	case InterNode:
		return "inter-node"
	default:
		return fmt.Sprintf("PathClass(%d)", int(c))
	}
}

// Classify returns the path class between two locations.
func Classify(a, b Location) PathClass {
	switch {
	case a == b:
		return Self
	case a.Node != b.Node:
		return InterNode
	case a.Socket != b.Socket:
		return IntraNode
	default:
		return IntraSocket
	}
}

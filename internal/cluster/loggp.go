package cluster

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// LogGP holds the parameters of the LogGP point-to-point cost model
// (Alexandrov et al.): a message of s bytes costs the sender o seconds of
// CPU overhead, occupies the link for g + (s-1)*G seconds, travels for L
// seconds, and costs the receiver another o. All values are in seconds
// (or seconds/byte for G).
type LogGP struct {
	L  float64 // wire latency (s)
	O  float64 // per-message CPU overhead at each end (s)
	G  float64 // gap between messages: minimum interval between injections (s)
	GB float64 // gap per byte: 1/bandwidth (s/byte)
}

// Validate checks the parameters are non-negative and bandwidth is finite.
func (m LogGP) Validate() error {
	if m.L < 0 || m.O < 0 || m.G < 0 || m.GB < 0 {
		return fmt.Errorf("cluster: negative LogGP parameter %+v", m)
	}
	if math.IsNaN(m.L + m.O + m.G + m.GB) {
		return fmt.Errorf("cluster: NaN LogGP parameter %+v", m)
	}
	return nil
}

// Bandwidth returns the asymptotic bandwidth in bytes/second (Inf if GB==0).
func (m LogGP) Bandwidth() float64 {
	if m.GB == 0 {
		return math.Inf(1)
	}
	return 1 / m.GB
}

// TransferTime returns the end-to-end one-way time for an s-byte message
// on an idle link: o + sG + L + o.
func (m LogGP) TransferTime(s int) float64 {
	return 2*m.O + m.L + float64(s)*m.GB
}

// Links bundles the per-path-class LogGP parameters plus memory-system
// parameters of a platform model.
type Links struct {
	Self        LogGP
	IntraSocket LogGP
	IntraNode   LogGP
	InterNode   LogGP
}

// For returns the parameters for a path class.
func (l Links) For(c PathClass) LogGP {
	switch c {
	case Self:
		return l.Self
	case IntraSocket:
		return l.IntraSocket
	case IntraNode:
		return l.IntraNode
	default:
		return l.InterNode
	}
}

// Validate checks every link class.
func (l Links) Validate() error {
	for _, c := range []PathClass{Self, IntraSocket, IntraNode, InterNode} {
		if err := l.For(c).Validate(); err != nil {
			return fmt.Errorf("%v: %w", c, err)
		}
	}
	return nil
}

// Model is a complete platform description: shape, link parameters, rank
// placement policy and memory parameters. It is what cmd/charhpc calls
// "a platform".
type Model struct {
	Name      string
	Topo      Topology
	Links     Links
	Placement Placement

	// MemBWPerSocket is the peak memory bandwidth of one socket in
	// bytes/s; MemBWPerCore is the bandwidth one core can draw alone.
	// STREAM scaling saturates at the socket limit — the knee the
	// paper's STREAM figure shows.
	MemBWPerSocket float64
	MemBWPerCore   float64

	// FlopsPerCore is the per-core peak in FLOP/s, used for HPL
	// roofline comparisons in the report.
	FlopsPerCore float64

	// Mem is the analytic memory-hierarchy model of one node: cache
	// levels, TLB reach, and page-size mode. It answers the latency
	// probes of internal/mem just as Links answers the network probes.
	Mem *mem.Model
}

// Validate checks the whole model.
func (m *Model) Validate() error {
	if m == nil {
		return fmt.Errorf("cluster: nil model")
	}
	if err := m.Topo.Validate(); err != nil {
		return err
	}
	if err := m.Links.Validate(); err != nil {
		return err
	}
	if m.MemBWPerSocket <= 0 || m.MemBWPerCore <= 0 || m.FlopsPerCore <= 0 {
		return fmt.Errorf("cluster: non-positive memory/compute parameters in %q", m.Name)
	}
	if m.Mem != nil {
		if err := m.Mem.Validate(); err != nil {
			return fmt.Errorf("cluster: model %q: %w", m.Name, err)
		}
	}
	return nil
}

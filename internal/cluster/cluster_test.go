package cluster

import (
	"testing"
	"testing/quick"
)

func TestTopologyValidate(t *testing.T) {
	good := Topology{Nodes: 2, SocketsPerNode: 2, CoresPerSocket: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	for _, bad := range []Topology{
		{0, 2, 4}, {2, 0, 4}, {2, 2, 0}, {-1, 2, 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid topology %+v accepted", bad)
		}
	}
}

func TestTopologyCounts(t *testing.T) {
	topo := Topology{Nodes: 3, SocketsPerNode: 2, CoresPerSocket: 4}
	if topo.TotalCores() != 24 {
		t.Errorf("TotalCores = %d, want 24", topo.TotalCores())
	}
	if topo.CoresPerNode() != 8 {
		t.Errorf("CoresPerNode = %d, want 8", topo.CoresPerNode())
	}
}

func TestPlaceBlock(t *testing.T) {
	topo := Topology{Nodes: 2, SocketsPerNode: 2, CoresPerSocket: 2}
	// Block: ranks 0-3 on node 0, 4-7 on node 1.
	want := []Location{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
		{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
	}
	for r, w := range want {
		got, err := topo.Place(r, 8, Block)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Block rank %d = %+v, want %+v", r, got, w)
		}
	}
}

func TestPlaceCyclic(t *testing.T) {
	topo := Topology{Nodes: 2, SocketsPerNode: 2, CoresPerSocket: 2}
	// Cyclic: even ranks node 0, odd ranks node 1.
	for r := 0; r < 8; r++ {
		got, err := topo.Place(r, 8, Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != r%2 {
			t.Errorf("Cyclic rank %d on node %d, want %d", r, got.Node, r%2)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	topo := Topology{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2}
	if _, err := topo.Place(0, 3, Block); err != ErrTooManyRanks {
		t.Errorf("overcommit err = %v, want ErrTooManyRanks", err)
	}
	if _, err := topo.Place(-1, 2, Block); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := topo.Place(2, 2, Block); err == nil {
		t.Error("rank >= nranks accepted")
	}
	if _, err := topo.Place(0, 1, Placement(99)); err == nil {
		t.Error("unknown placement accepted")
	}
}

func TestPlacementInjective(t *testing.T) {
	// Property: no two ranks land on the same core, either policy.
	topo := Topology{Nodes: 3, SocketsPerNode: 2, CoresPerSocket: 4}
	for _, p := range []Placement{Block, Cyclic} {
		n := topo.TotalCores()
		seen := map[Location]int{}
		for r := 0; r < n; r++ {
			loc, err := topo.Place(r, n, p)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[loc]; dup {
				t.Fatalf("%v: ranks %d and %d share %+v", p, prev, r, loc)
			}
			seen[loc] = r
		}
	}
}

func TestPlaceLocationsInBoundsProperty(t *testing.T) {
	f := func(nodes, socks, cores uint8, rank uint16, cyclic bool) bool {
		topo := Topology{
			Nodes:          int(nodes)%4 + 1,
			SocketsPerNode: int(socks)%3 + 1,
			CoresPerSocket: int(cores)%5 + 1,
		}
		n := topo.TotalCores()
		r := int(rank) % n
		p := Block
		if cyclic {
			p = Cyclic
		}
		loc, err := topo.Place(r, n, p)
		if err != nil {
			return false
		}
		return loc.Node >= 0 && loc.Node < topo.Nodes &&
			loc.Socket >= 0 && loc.Socket < topo.SocketsPerNode &&
			loc.Core >= 0 && loc.Core < topo.CoresPerSocket
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		a, b Location
		want PathClass
	}{
		{Location{0, 0, 0}, Location{0, 0, 0}, Self},
		{Location{0, 0, 0}, Location{0, 0, 1}, IntraSocket},
		{Location{0, 0, 0}, Location{0, 1, 0}, IntraNode},
		{Location{0, 0, 0}, Location{1, 0, 0}, InterNode},
		{Location{2, 1, 3}, Location{3, 1, 3}, InterNode},
	}
	for _, c := range cases {
		if got := Classify(c.a, c.b); got != c.want {
			t.Errorf("Classify(%+v,%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestClassifySymmetric(t *testing.T) {
	f := func(an, as, ac, bn, bs, bc uint8) bool {
		a := Location{int(an % 4), int(as % 2), int(ac % 4)}
		b := Location{int(bn % 4), int(bs % 2), int(bc % 4)}
		return Classify(a, b) == Classify(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogGPValidate(t *testing.T) {
	if err := (LogGP{L: 1e-6, O: 1e-7, G: 1e-7, GB: 1e-9}).Validate(); err != nil {
		t.Errorf("valid LogGP rejected: %v", err)
	}
	if err := (LogGP{L: -1}).Validate(); err == nil {
		t.Error("negative L accepted")
	}
}

func TestLogGPTimes(t *testing.T) {
	m := LogGP{L: 10e-6, O: 1e-6, G: 0, GB: 1e-9}
	// 1000-byte transfer: 2*1µs + 10µs + 1000*1ns = 13µs.
	got := m.TransferTime(1000)
	want := 13e-6
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	if d := m.Bandwidth()/1e9 - 1; d > 1e-12 || d < -1e-12 {
		t.Errorf("Bandwidth = %v, want 1e9", m.Bandwidth())
	}
}

func TestLogGPTransferMonotoneInSize(t *testing.T) {
	f := func(s1, s2 uint16) bool {
		m := IBParams()
		a, b := int(s1), int(s2)
		if a > b {
			a, b = b, a
		}
		return m.TransferTime(a) <= m.TransferTime(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		m, ok := Lookup(name)
		if !ok {
			t.Fatalf("registered preset %q does not resolve", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("preset map key %q != model name %q", name, m.Name)
		}
	}
}

func TestPresetLatencyOrdering(t *testing.T) {
	// The physical hierarchy must hold: self < intra-socket < intra-node
	// < inter-node small-message latency, on both fabrics.
	for _, m := range []*Model{GigECluster(), IBCluster()} {
		prev := -1.0
		for _, c := range []PathClass{Self, IntraSocket, IntraNode, InterNode} {
			lat := m.Links.For(c).TransferTime(8)
			if lat <= prev {
				t.Errorf("%s: %v latency %.3g not above previous %.3g", m.Name, c, lat, prev)
			}
			prev = lat
		}
	}
}

func TestGigEVsIBRelation(t *testing.T) {
	g, i := GigEParams(), IBParams()
	if g.TransferTime(8) < 10*i.TransferTime(8) {
		t.Error("GigE small-message latency should be >=10x IB")
	}
	if g.Bandwidth() > i.Bandwidth() {
		t.Error("GigE bandwidth should be below IB")
	}
}

func TestPathBetween(t *testing.T) {
	m := IBCluster()
	n := m.Topo.TotalCores()
	// Block placement: ranks 0 and 1 share a socket; 0 and n-1 are on
	// different nodes.
	_, c, err := m.PathBetween(0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if c != IntraSocket {
		t.Errorf("ranks 0,1 class = %v, want intra-socket", c)
	}
	_, c, err = m.PathBetween(0, n-1, n)
	if err != nil {
		t.Fatal(err)
	}
	if c != InterNode {
		t.Errorf("ranks 0,%d class = %v, want inter-node", n-1, c)
	}
	if _, _, err := m.PathBetween(0, n, n); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

func TestModelValidateCatchesBadMemory(t *testing.T) {
	m := IBCluster()
	m.MemBWPerSocket = 0
	if err := m.Validate(); err == nil {
		t.Error("zero memory bandwidth accepted")
	}
	var nilModel *Model
	if err := nilModel.Validate(); err == nil {
		t.Error("nil model accepted")
	}
}

func TestStringers(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Error("Placement strings wrong")
	}
	if Self.String() != "self" || InterNode.String() != "inter-node" {
		t.Error("PathClass strings wrong")
	}
	topo := Topology{Nodes: 2, SocketsPerNode: 2, CoresPerSocket: 4}
	if topo.String() == "" {
		t.Error("empty topology string")
	}
}

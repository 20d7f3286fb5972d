package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestPairModelClasses: each block-placed pair (i, i+pairs) of
// pairModel(m, pc, pairs) falls on path class pc, with every inter-node
// sender on node 0 and its receiver on node 1, on the preset's own links;
// m itself is left as it was.
func TestPairModelClasses(t *testing.T) {
	m := cluster.Preset("ib-8n")
	m.Placement = cluster.Cyclic
	want := *m
	for _, tc := range []struct {
		pc    cluster.PathClass
		pairs []int
	}{
		{cluster.IntraSocket, []int{1}},
		{cluster.IntraNode, []int{1}},
		{cluster.InterNode, []int{1, 2, 4}},
	} {
		for _, pairs := range tc.pairs {
			pm := pairModel(m, tc.pc, pairs)
			if err := pm.Validate(); err != nil {
				t.Fatalf("%s × %d: %v", tc.pc, pairs, err)
			}
			n := 2 * pairs
			for i := 0; i < pairs; i++ {
				a, err := pm.Topo.Place(i, n, pm.Placement)
				if err != nil {
					t.Fatal(err)
				}
				b, err := pm.Topo.Place(i+pairs, n, pm.Placement)
				if err != nil {
					t.Fatal(err)
				}
				if got := cluster.Classify(a, b); got != tc.pc {
					t.Errorf("pairModel(%s, %d): ranks %d and %d classify as %s", tc.pc, pairs, i, i+pairs, got)
				}
				if tc.pc == cluster.InterNode && (a.Node != 0 || b.Node != 1) {
					t.Errorf("pairModel(%s, %d): pair %d on nodes %d → %d, want 0 → 1", tc.pc, pairs, i, a.Node, b.Node)
				}
			}
			if pm.Topo.TotalCores() != n || pm.Links != m.Links || pm.Mem != m.Mem {
				t.Errorf("pairModel(%s, %d) = %+v: want %d cores and the preset's links and memory", tc.pc, pairs, pm, n)
			}
		}
	}
	if *m != want {
		t.Errorf("pairModel changed its input: %+v, want %+v", *m, want)
	}
}

// TestT4PairIsInterNodeOnEveryPlatform: T4's pair rows time an
// inter-node pair whatever the node count. On 7 nodes a cyclic world of
// 8 ranks puts rank 7 back on node 0, so a pair taken from that world
// would time an intra-node path; the two machines share their links and
// must give the same rows.
func TestT4PairIsInterNodeOnEveryPlatform(t *testing.T) {
	defer cluster.PurgeCustoms()
	e, _ := Get("T4")
	rows := func(nodes int) []string {
		var b bytes.Buffer
		if err := e.Run(&b, Request{Scale: Quick, Platform: registerEDR(t, nodes)}); err != nil {
			t.Fatalf("T4 on %d nodes: %v", nodes, err)
		}
		var out []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "8B latency") || strings.HasPrefix(line, "1MiB p2p BW") {
				out = append(out, line)
			}
		}
		if len(out) != 2 {
			t.Fatalf("T4 on %d nodes: want the two pair rows, got %q in:\n%s", nodes, out, b.String())
		}
		return out
	}
	sixteen, seven := rows(16), rows(7)
	for i := range sixteen {
		if sixteen[i] != seven[i] {
			t.Errorf("T4 pair row differs between 16 and 7 nodes:\n%s\n%s", sixteen[i], seven[i])
		}
	}
}

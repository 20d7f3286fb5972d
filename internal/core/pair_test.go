package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestPairModelClasses: block-placed ranks 0 and 1 of pairModel(m, pc)
// fall on path class pc, on the preset's own links, and m itself is left
// as it was.
func TestPairModelClasses(t *testing.T) {
	m := cluster.IBCluster()
	m.Placement = cluster.Cyclic
	want := *m
	for _, pc := range []cluster.PathClass{cluster.IntraSocket, cluster.IntraNode, cluster.InterNode} {
		pm := pairModel(m, pc)
		if err := pm.Validate(); err != nil {
			t.Fatalf("%s: %v", pc, err)
		}
		a, err := pm.Topo.Place(0, 2, pm.Placement)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pm.Topo.Place(1, 2, pm.Placement)
		if err != nil {
			t.Fatal(err)
		}
		if got := cluster.Classify(a, b); got != pc {
			t.Errorf("pairModel(%s): ranks 0 and 1 classify as %s", pc, got)
		}
		if pm.Topo.TotalCores() != 2 || pm.Links != m.Links || pm.Mem != m.Mem {
			t.Errorf("pairModel(%s) = %+v: want two cores and the preset's links and memory", pc, pm)
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

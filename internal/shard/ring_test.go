package shard

import (
	"fmt"
	"testing"
)

// syntheticKeys builds a key population shaped like real traffic:
// experiment IDs × scales × a platform axis.
func syntheticKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, Key(fmt.Sprintf("E%d", i%97), "quick", fmt.Sprintf("plat-%d", i)))
	}
	return keys
}

func ringOf(n, vnodes int) (*Ring, []string) {
	r := NewRing(vnodes)
	shards := make([]string, n)
	for i := range shards {
		shards[i] = fmt.Sprintf("http://shard-%d:8080", i)
		r.Add(shards[i])
	}
	return r, shards
}

// TestRingBalance pins the distribution quality the vnode count buys:
// across 8 shards, every shard's share of a large key population must
// stay within a tolerance band around the even 1/8 share. The band
// (0.5×..1.6× of even) is loose enough to be hash-stable and tight
// enough to catch a broken ring (one shard owning half the space
// blows through it instantly).
func TestRingBalance(t *testing.T) {
	const nShards, nKeys = 8, 20000
	r, shards := ringOf(nShards, 0)
	counts := map[string]int{}
	for _, k := range syntheticKeys(nKeys) {
		owner, ok := r.Owner(k)
		if !ok {
			t.Fatal("no owner on a populated ring")
		}
		counts[owner]++
	}
	even := float64(nKeys) / nShards
	for _, s := range shards {
		share := float64(counts[s]) / even
		if share < 0.5 || share > 1.6 {
			t.Errorf("shard %s owns %d keys (%.2f× the even share; want 0.5×..1.6×)", s, counts[s], share)
		}
	}
	if len(counts) != nShards {
		t.Errorf("only %d of %d shards own keys", len(counts), nShards)
	}
}

// TestRingRemapFraction pins the consistent-hashing contract: adding
// one shard to n remaps about 1/(n+1) of the keys, all of them to the
// joiner. A modulo router would remap ~87% here — the band catches any
// regression toward that.
func TestRingRemapFraction(t *testing.T) {
	const nShards, nKeys = 7, 20000
	r, _ := ringOf(nShards, 0)
	keys := syntheticKeys(nKeys)
	before := make(map[string]string, nKeys)
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	joined := "http://shard-new:8080"
	r.Add(joined)
	moved, movedToJoined := 0, 0
	for _, k := range keys {
		owner, _ := r.Owner(k)
		if owner != before[k] {
			moved++
			if owner == joined {
				movedToJoined++
			}
		}
	}
	want := float64(nKeys) / (nShards + 1)
	if f := float64(moved) / want; f < 0.5 || f > 1.6 {
		t.Errorf("join remapped %d keys, want ≈%.0f (1/n of %d)", moved, want, nKeys)
	}
	if movedToJoined != moved {
		t.Errorf("%d of %d remapped keys moved to a shard other than the joiner", moved-movedToJoined, moved)
	}
}

// TestRingSuccessors pins the failover order: distinct shards, owner
// first, and n capped at the pool size.
func TestRingSuccessors(t *testing.T) {
	r, shards := ringOf(4, 0)
	key := Key("T1", "quick", "")
	succ := r.Successors(key, 10)
	if len(succ) != 4 {
		t.Fatalf("got %d successors, want all 4 shards", len(succ))
	}
	seen := map[string]bool{}
	for _, s := range succ {
		if seen[s] {
			t.Fatalf("duplicate shard %s in successor order %v", s, succ)
		}
		seen[s] = true
	}
	owner, _ := r.Owner(key)
	if succ[0] != owner {
		t.Errorf("successor[0] = %s, owner = %s", succ[0], owner)
	}
	// Failover contract: the pool without the owner routes the key to
	// successor[1].
	rest := NewRing(0)
	for _, s := range shards {
		if s != owner {
			rest.Add(s)
		}
	}
	if next, _ := rest.Owner(key); next != succ[1] {
		t.Errorf("after owner left, key moved to %s, want ring successor %s", next, succ[1])
	}
}

// TestRingStability pins that routing is a pure function of the key
// and pool — two independently built rings agree — which is what lets
// tests, router replicas, and restarts route identically.
func TestRingStability(t *testing.T) {
	a, _ := ringOf(5, 64)
	b, _ := ringOf(5, 64)
	for _, k := range syntheticKeys(500) {
		ao, _ := a.Owner(k)
		bo, _ := b.Owner(k)
		if ao != bo {
			t.Fatalf("rings disagree on %q: %s vs %s", k, ao, bo)
		}
	}
}

func TestRingEmptyAndDefaults(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner("k"); ok {
		t.Error("empty ring claims an owner")
	}
	if r.vnodes != DefaultVNodes {
		t.Errorf("vnodes = %d, want DefaultVNodes", r.vnodes)
	}
	r.Add("a")
	r.Add("a") // duplicate add is a no-op
	if got := r.Shards(); len(got) != 1 {
		t.Errorf("shards after duplicate add: %v", got)
	}
	if owner, ok := r.Owner("k"); !ok || owner != "a" {
		t.Errorf("single-shard ring owner = %q, %v", owner, ok)
	}
}

// BenchmarkRingOwner is the stage bench/ reports as shard.ring_owner_ns:
// one key lookup on a two-shard ring at the default vnode count, the
// pool shape the routed_warm workload runs.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(0)
	r.Add("http://127.0.0.1:8081")
	r.Add("http://127.0.0.1:8082")
	key := Key("T1", "quick", "gige-8n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Owner(key); !ok {
			b.Fatal("empty ring")
		}
	}
}

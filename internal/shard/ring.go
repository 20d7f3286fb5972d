// Package shard scales the results service horizontally: a
// consistent-hash router (cmd/charhpc-router) fronts a pool of
// charhpcd workers, partitioning the platform-qualified cache key
// space (id, scale, platform) so each shard's memory and disk cache
// stays hot for its own slice of the keys.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. Owner(key)
//     names the shard a key lives on; Successors(key, n) is the
//     failover order — the next distinct shards clockwise, which is
//     also where a key remaps when its owner leaves.
//   - Router: the http.Handler. It hashes a run request's key and
//     forwards — the owning shard validates, so a rejection is the
//     shard's own bytes — reverse-proxying the blocking GET, the
//     async job API with its SSE event streams, and the /platforms
//     resource; it fans custom-platform registrations out to every
//     shard, health-checks the pool, and re-routes a failed request
//     to the next live ring successor.
//
// Routing hashes only the key string, never the result, so any shard
// can in principle serve any key — ownership is a cache-locality
// optimization, not a correctness requirement. That is what makes
// failover sound: re-running a key on the ring successor produces the
// same bytes (and the same strong ETag) the owner would have served.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per shard on the Router's
// ring, and on any Ring built with a count of zero. Router replicas
// must agree on it to route alike. More virtual nodes smooth the key
// distribution (imbalance shrinks roughly with 1/sqrt(vnodes)) at the
// cost of a larger sorted point list; 128 keeps an 8-shard pool's
// shares within a few percent of even.
const DefaultVNodes = 128

// Key builds the ring key for one platform-qualified cache slot —
// the same (id, scale, platform) triple internal/diskcache names its
// entries by, so a shard's disk cache accumulates exactly the keys
// the ring assigns it.
func Key(id, scale, platform string) string {
	return id + "@" + scale + "@" + platform
}

// Ring is a consistent-hash ring over named shards. Each shard is
// inserted at vnodes pseudo-random points; a key belongs to the first
// shard point at or after its own hash, wrapping around. A pool with
// one shard more or less differs only in the keys adjacent to that
// shard's points — about 1/n of the space — which is the property that
// keeps the other shards' caches hot across pool changes (pinned by
// the remap test in ring_test.go).
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point  // sorted by hash
	shards []string // insertion order, for stable iteration
}

// point is one virtual node: a position on the ring and the shard it
// maps to.
type point struct {
	h     uint64
	shard string
}

// NewRing builds an empty ring with the given virtual-node count per
// shard (<= 0 means DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes}
}

// hash64 positions a string on the ring: the first 8 bytes of its
// SHA-256. A cryptographic hash is overkill for distribution alone,
// but it is dependency-free, stable across processes and Go versions
// (routing must agree between a router and its tests, and between two
// router replicas), and immune to engineered collisions in
// caller-controlled platform names.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a shard at vnodes points. Adding a shard twice is a
// no-op.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.shards {
		if s == shard {
			return
		}
	}
	r.shards = append(r.shards, shard)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash64(fmt.Sprintf("%s#%d", shard, i)), shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// Shards returns the shard names in insertion order.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.shards...)
}

// Owner returns the shard that owns key, false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return "", false
	}
	return s[0], true
}

// Successors returns up to n distinct shards in ring order starting
// at key's owner. Element 0 is the owner; the rest are the failover
// order — the shards the key would remap to if the ones before them
// left the pool.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(j int) bool { return r.points[j].h >= h })
	seen := make(map[string]bool, n)
	var out []string
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(start+k)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

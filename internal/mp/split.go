package mp

import (
	"fmt"
	"sort"
)

// Undefined, passed as a Split color, means this rank joins no group and
// receives a nil communicator (the analogue of MPI_UNDEFINED).
const Undefined = -1

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by (key, rank). It is a collective — every
// rank of c must call it. Ranks passing Undefined receive nil.
//
// Traffic on the new communicator is isolated from the parent's by a
// context id derived deterministically from (parent context, split
// sequence number, color), so point-to-point and collective operations
// on different communicators can interleave freely.
func (c *Comm) Split(color, key int) (*Comm, error) {
	if color < 0 && color != Undefined {
		return nil, fmt.Errorf("mp: split color %d must be >= 0 or Undefined", color)
	}
	c.splitSeq++

	// Allgather (color, key) so every rank can compute every group.
	pair := []float64{float64(color), float64(key)}
	all := make([]float64, 2*c.Size())
	if err := c.Allgather(f64bytes(pair), f64bytes(all)); err != nil {
		return nil, fmt.Errorf("mp: split allgather: %w", err)
	}
	if color == Undefined {
		return nil, nil
	}

	// Collect members of my color, ordered by (key, parent rank).
	type member struct {
		key        int
		parentRank int
	}
	var members []member
	for r := 0; r < c.Size(); r++ {
		if int(all[2*r]) == color {
			members = append(members, member{key: int(all[2*r+1]), parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})

	ranks := make([]int, len(members))
	inv := make([]int, len(c.eng.fab.ports))
	for g := range inv {
		inv[g] = -1
	}
	myRank := -1
	for i, m := range members {
		ranks[i] = c.global(m.parentRank)
		inv[ranks[i]] = i
		if m.parentRank == c.rank {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("mp: split: rank %d missing from its own group", c.rank)
	}

	return &Comm{
		eng:   c.eng,
		ctx:   childCtx(c.ctx, c.splitSeq, color),
		rank:  myRank,
		ranks: ranks,
		inv:   inv,
	}, nil
}

// childCtx derives a communicator context id. All members of a group
// compute the same value (same parent ctx, same split sequence, same
// color); distinct groups get distinct values with overwhelming
// probability (64-bit mix).
func childCtx(parent, splitSeq uint64, color int) uint64 {
	z := parent ^ (splitSeq * 0x9e3779b97f4a7c15) ^ (uint64(color)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 is reserved for the world communicator
	}
	return z
}

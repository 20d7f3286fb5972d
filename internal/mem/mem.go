// Package mem characterizes the memory hierarchy — the latency-bound
// complement to the bandwidth-bound STREAM suite (internal/stream). The
// source study examines "big memory": how cache capacities, TLB reach,
// and page size (statically mapped large pages vs a demand-paged small
// page address space) shape the memory access time an application
// actually sees.
//
// The package has two halves, mirroring the measured/modeled split used
// throughout the harness:
//
//   - Probe kernels that run on the host: a pointer-chase latency ladder
//     over working-set sweeps (Chase, Ladder), a TLB-stress pattern
//     that touches one cache line per page (TLBStress), and a NUMA
//     placement probe that faults the working set in from pinned worker
//     teams under a placement policy before chasing it (NUMALadder).
//     The chase follows a random-cycle permutation, so every load
//     depends on the previous one and hardware prefetchers see no
//     usable stride.
//
//   - An analytic Model (model.go) attached to every platform preset in
//     internal/cluster, so that modeled platforms answer memory probes
//     just like their LogGP parameters answer network probes. The model
//     predicts per-access latency from cache level capacities, TLB
//     reach, and two orthogonal mapping axes: the page-size mode
//     (BigMemory vs Paged) and, on multi-node machines (NUMA), the page
//     Placement policy (FirstTouch, Interleave, Remote) — see
//     Model.Latency. A single-node model reproduces its pre-NUMA
//     latencies bit-for-bit under every policy.
//
// internal/perfmodel closes the loop: FitHierarchy recovers level
// capacities and latencies from a measured or modeled ladder by
// knee-point detection (experiment M4 compares the fit against the
// model's configured truth), and FitNUMASplit recovers the local/remote
// memory-latency split from a pair of placement-controlled ladders
// (experiment M5 does the same for the NUMA axis).
package mem

// Sample is one point of a latency ladder: the average time of a single
// dependent load when chasing pointers through a working set of the
// given size.
type Sample struct {
	Bytes   int     // working-set size in bytes
	Seconds float64 // per-access latency in seconds
}

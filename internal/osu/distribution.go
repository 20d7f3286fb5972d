package osu

import (
	"repro/internal/mp"
	"repro/internal/stats"
)

// DistSample is one size point of a latency sweep with the full
// per-iteration distribution, as measurement studies report
// (min/avg/median/p95/max rather than a single mean).
type DistSample struct {
	Size    int
	Summary stats.Summary // of per-iteration half-RTT seconds
}

// LatencyDistribution runs the ping-pong like Latency but records every
// iteration's individual half round-trip, returning distribution
// summaries. On the deterministic Sim fabric the spread is genuine
// protocol behaviour (e.g. rendezvous handshakes interleaving with
// unrelated traffic); on real fabrics it captures scheduler and stack
// jitter.
func LatencyDistribution(c *mp.Comm, opts Options) ([]DistSample, error) {
	opts = opts.normalize()
	if err := checkPair(c, opts); err != nil {
		return nil, err
	}
	var out []DistSample
	me, peer := pairRole(c, opts)
	maxBuf := payloadBuf(me >= 0, opts.Sizes)
	for _, size := range opts.Sizes {
		warm, iters := opts.loops(size)
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		var series []float64
		if me >= 0 {
			buf := maxBuf[:size]
			for i := 0; i < warm+iters; i++ {
				t0 := c.Time()
				if me == 0 {
					if err := c.Send(peer, benchTag, buf); err != nil {
						return nil, err
					}
					if _, err := c.Recv(peer, benchTag, buf); err != nil {
						return nil, err
					}
				} else {
					if _, err := c.Recv(peer, benchTag, buf); err != nil {
						return nil, err
					}
					if err := c.Send(peer, benchTag, buf); err != nil {
						return nil, err
					}
				}
				if i >= warm && me == 0 {
					series = append(series, (c.Time()-t0)/2)
				}
			}
		}
		if me == 0 {
			s, err := stats.Summarize(series)
			if err != nil {
				return nil, err
			}
			out = append(out, DistSample{Size: size, Summary: s})
		}
	}
	// Only the measuring rank returns data; other ranks return nil and
	// a successful status (they participated in the barriers).
	return out, nil
}

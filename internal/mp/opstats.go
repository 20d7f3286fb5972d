package mp

// OpStats counts the runtime's protocol activity for one rank. The
// characterization uses it to verify algorithm cost models — e.g. that
// a binomial broadcast on p ranks really issues the expected
// ceil(log2 p) sends per relay — and to report matching-engine
// behaviour (posted vs unexpected hit rates).
type OpStats struct {
	SendsEager  uint64 // eager-path sends issued
	SendsRndv   uint64 // rendezvous sends issued (RTS sent)
	Recvs       uint64 // receives completed
	BytesSent   uint64 // payload bytes passed to the fabric
	BytesRecv   uint64 // payload bytes delivered to receive buffers
	MatchPosted uint64 // incoming messages that matched a posted receive
	MatchUnexp  uint64 // receives satisfied from the unexpected queue
	Collectives uint64 // collective operations started
}

// Stats returns a snapshot of this rank's counters, which accumulate
// from Run start.
func (c *Comm) Stats() OpStats { return c.stats }

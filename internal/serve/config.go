package serve

import (
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// ScaleLimit is the largest scale the server will run; requests
	// above it are rejected with 403. The zero value limits the
	// server to Quick; set Full to also allow paper-scale runs.
	ScaleLimit core.Scale

	// RunFunc executes one experiment request; nil means core.Run,
	// with live hooks that feed the fill's phase/section events to
	// every job on the key. Tests substitute it to count or stub
	// executions; a stubbed run produces no live phase/section events,
	// only the job's lifecycle ones.
	RunFunc func(core.Experiment, core.Request) core.Result

	// JobsHistory bounds how many finished jobs GET /runs retains for
	// inspection; 0 means jobs.DefaultHistory.
	JobsHistory int

	// Store, when non-nil, persists filled cache entries to disk and
	// makes the in-memory cache a write-through front: a cold key
	// loads from the store before it runs, and every successful fill
	// is written back. The store must have been opened with
	// diskcache.Fingerprints{Global: core.Fingerprint(), PerID:
	// core.Fingerprints()} so entries from other binaries or registry
	// shapes are rejected (see internal/diskcache).
	Store *diskcache.Store

	// AccessLog, when non-nil, receives one structured line per
	// request (request ID, method, path, status, bytes, latency).
	// Nil disables access logging; a nil *obs.Logger is also safe.
	AccessLog *obs.Logger

	// PlatformDir, when non-empty, is where custom platform specs
	// live: every *.json file in it is registered at startup, and
	// POST /platforms persists new registrations into it — so a
	// restarted daemon resolves the same custom-<hash> names and its
	// disk-cached custom results stay addressable.
	PlatformDir string
}

// DefaultCustomCacheEntries bounds how many custom-platform results the
// in-memory cache retains: its own LRU namespace, so preset entries are
// never evicted however many customs churn.
const DefaultCustomCacheEntries = 128

// traceCapacity is the size of the ring of recent run traces served by
// GET /debug/traces.
const traceCapacity = 32

// Persistence: how a result set is laid out in a diskcache.Store — one
// entry per (id, scale, platform, content type), stamped with a shared
// run ID. loadReps is the layout's only reader and putReps its only
// writer; the daemon's write-through cache and the CLI's
// StoreResult/LoadResult both go through them.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/report"
)

// storeKey maps one in-memory cache slot + offered content type to
// the disk store's key space. Keys carry the bare media type — the
// charset parameter is a response detail, not part of the identity.
func storeKey(id string, req core.Request, ct string) diskcache.Key {
	return diskcache.Key{ID: id, Scale: req.Scale.String(), Platform: req.Platform, ContentType: mediaType(ct)}
}

// runIDOf stamps one execution's generation: a hash over every
// representation's ETag. Entries written by one fill share it, so a
// set mixed across two concurrent executions (last-writer-wins per
// file, and nondeterministic experiments render different bytes per
// run) is detectable on load even though each file validates alone.
func runIDOf(reps map[string]rep) string {
	h := sha256.New()
	for _, ct := range offered {
		fmt.Fprintln(h, reps[ct].etag)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// loadReps fetches the given representations of (id, scale, platform)
// from the disk store. It is all-or-nothing: the caller needs every
// requested content type from the same execution, so a partial set —
// or one whose entries carry different run stamps because two writers
// raced — reads as a miss.
func loadReps(st *diskcache.Store, id string, req core.Request, cts ...string) (resultSet, bool) {
	rs := resultSet{reps: make(map[string]rep, len(cts))}
	var runID string
	for i, ct := range cts {
		ent, ok := st.Get(storeKey(id, req, ct))
		if !ok {
			return resultSet{}, false
		}
		if i == 0 {
			runID, rs.elapsed = ent.RunID, ent.Elapsed
		} else if ent.RunID != runID {
			return resultSet{}, false
		}
		rs.reps[ct] = rep{body: ent.Body, etag: ent.ETag}
	}
	return rs, true
}

// putReps persists one fill's representations — runID-stamped so a
// reader can reject a set mixed across racing writers. The first
// failed write is returned; the rest are still attempted.
func putReps(st *diskcache.Store, id string, req core.Request, rs resultSet) error {
	runID := runIDOf(rs.reps)
	var firstErr error
	for _, ct := range offered {
		rp := rs.reps[ct]
		err := st.Put(storeKey(id, req, ct),
			diskcache.Entry{ETag: rp.etag, RunID: runID, Elapsed: rs.elapsed, Body: rp.body})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StoreResult renders one captured execution into all negotiable
// representations and persists them under the store layout the daemon
// reads — how charhpc -cache-dir shares a store with charhpcd. A
// failed result is not persisted.
func StoreResult(st *diskcache.Store, res core.Result) error {
	rs, err := renderResult(res)
	if err != nil {
		return err
	}
	return putReps(st, res.Experiment.ID, res.Req, rs)
}

// LoadResult reconstructs a cached execution of e for request req from
// the disk store: the text representation replays the byte stream and
// the JSON envelope's sections rebuild the structured document, so
// the returned Result behaves like a live run (report.Rebuild is the
// round-trip's other half). Elapsed is the original run's wall time.
// Missing or invalid entries return ok=false.
func LoadResult(st *diskcache.Store, e core.Experiment, req core.Request) (core.Result, bool) {
	rs, ok := loadReps(st, e.ID, req, ctText, ctJSON)
	if !ok {
		return core.Result{}, false
	}
	var env resultJSON
	if err := json.Unmarshal(rs.reps[ctJSON].body, &env); err != nil {
		return core.Result{}, false
	}
	return core.Result{
		Experiment: e,
		Req:        req,
		Rec:        report.Rebuild(rs.reps[ctText].body, env.Sections),
		Elapsed:    rs.elapsed,
	}, true
}

// Persistence: how a result set is laid out in a diskcache.Store — one
// entry per (id, scale, platform), its body the three representations
// framed back to back, so one atomic rename carries the whole set.
// loadReps is the layout's only reader and putReps its only writer;
// the daemon's write-through cache and the CLI's
// StoreResult/LoadResult both go through them. The daemon times each
// store call on charhpc_diskcache_op_seconds; the CLI passes no
// instrument.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/obs"
	"repro/internal/report"
)

// storeContentType is the content type every persisted result set is
// keyed under: the framed set, not any one negotiable representation.
const storeContentType = "application/vnd.charhpc.result-set"

// storeKey maps one in-memory cache slot to the disk store's key space.
func storeKey(id string, req core.Request) diskcache.Key {
	return diskcache.Key{ID: id, Scale: req.Scale.String(), Platform: req.Platform, ContentType: storeContentType}
}

// encodeResultSet frames the representations in offered order, each as
// a 4-byte big-endian length followed by exactly that many body bytes.
func encodeResultSet(reps map[string]rep) []byte {
	var b []byte
	for _, ct := range offered {
		b = binary.BigEndian.AppendUint32(b, uint32(len(reps[ct].body)))
		b = append(b, reps[ct].body...)
	}
	return b
}

// decodeResultSet is encodeResultSet's inverse. ETags and lengths are
// recomputed from the bytes; a frame with a short length, a length past the end
// or trailing bytes is rejected whole.
func decodeResultSet(b []byte) (map[string]rep, bool) {
	reps := make(map[string]rep, len(offered))
	for _, ct := range offered {
		if len(b) < 4 {
			return nil, false
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, false
		}
		reps[ct] = newRep(b[:n])
		b = b[n:]
	}
	return reps, len(b) == 0
}

// loadReps fetches the result set of (id, scale, platform) from the
// disk store, observing the Get call alone on lat (nil-safe). A frame
// that fails to decode reads as a miss: the caller re-runs and the next
// putReps overwrites it.
func loadReps(st *diskcache.Store, lat *obs.Histogram, id string, req core.Request) (resultSet, bool) {
	t0 := time.Now()
	ent, ok := st.Get(storeKey(id, req))
	lat.ObserveSince(t0)
	if !ok {
		return resultSet{}, false
	}
	reps, ok := decodeResultSet(ent.Body)
	return resultSet{reps: reps, elapsed: ent.Elapsed}, ok
}

// putReps persists one fill's representations as one entry, observing
// the Put call alone, not the framing, on lat (nil-safe).
func putReps(st *diskcache.Store, lat *obs.Histogram, id string, req core.Request, rs resultSet) error {
	k, e := storeKey(id, req), diskcache.Entry{Elapsed: rs.elapsed, Body: encodeResultSet(rs.reps)}
	defer lat.ObserveSince(time.Now())
	return st.Put(k, e)
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
	return putReps(st, nil, res.Experiment.ID, res.Req, rs)
}

// LoadResult reconstructs a cached execution of e for request req from
// the disk store: the text representation replays the byte stream and
// the JSON envelope's sections rebuild the structured document, so
// the returned Result behaves like a live run (report.Rebuild is the
// round-trip's other half). Elapsed is the original run's wall time.
// Missing or invalid entries return ok=false.
func LoadResult(st *diskcache.Store, e core.Experiment, req core.Request) (core.Result, bool) {
	rs, ok := loadReps(st, nil, e.ID, req)
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

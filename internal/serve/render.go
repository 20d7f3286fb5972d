// Rendering: what a result is on the wire. A result set is the three
// negotiable representations of one execution, each with the strong
// ETag of its exact bytes; this file renders them, picks one from an
// Accept header, and writes the negotiated response — the only place
// that sequence is spelled.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// The three offered content types, in server preference order for
// wildcard Accept matches. Negotiation compares media types only;
// the charset parameter rides along on responses.
const (
	ctText = "text/plain; charset=utf-8"
	ctCSV  = "text/csv; charset=utf-8"
	ctJSON = "application/json"
)

var offered = []string{ctText, ctJSON, ctCSV}

// rep is one negotiated representation of a result: the rendered body,
// its strong ETag (hash of exactly those bytes) and its Content-Length
// header value. Build one with newRep.
type rep struct {
	body   []byte
	etag   string
	length []string // the Content-Length value; cap == len, so no response's append reaches another's
}

// newRep wraps a rendered body with the validators every response of it
// sends, computed once here rather than per request.
func newRep(body []byte) rep {
	return rep{body: body, etag: etagOf(body), length: []string{strconv.Itoa(len(body))}}
}

// resultSet is one execution's result as every layer passes it on:
// the representations keyed by content type, the run's wall time, and
// the tier that produced it ("run", "disk", or "mem" for a caller that
// found it already cached or in flight).
type resultSet struct {
	reps    map[string]rep
	elapsed time.Duration
	tier    string
}

// resultJSON is the JSON envelope for one experiment's results.
// Platform is present only for explicit-platform requests. It carries
// no run time (that is the X-Experiment-Elapsed header's and the job's
// terminal event's), so a modeled experiment's envelope is a function
// of its key and its strong ETag reproduces across runs and daemons.
type resultJSON struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	Title    string           `json:"title"`
	Scale    string           `json:"scale"`
	Platform string           `json:"platform,omitempty"`
	Sections []report.Section `json:"sections"`
}

// renderResult turns one captured execution into all three negotiable
// representations, each with the strong ETag of its exact bytes. The
// tier is the caller's to stamp.
func renderResult(res core.Result) (resultSet, error) {
	if res.Err != nil {
		return resultSet{}, res.Err
	}
	if res.Rec == nil {
		return resultSet{}, fmt.Errorf("run produced no output recorder")
	}
	doc := res.Rec.Document()

	text := append([]byte(nil), res.Rec.Bytes()...)

	var csvb strings.Builder
	if err := doc.CSV(&csvb); err != nil {
		return resultSet{}, err
	}

	sections := doc.Sections
	if sections == nil {
		sections = []report.Section{}
	}
	jsonb, err := json.Marshal(resultJSON{
		ID:       res.Experiment.ID,
		Kind:     res.Experiment.Kind,
		Title:    res.Experiment.Title,
		Scale:    res.Req.Scale.String(),
		Platform: res.Req.Platform,
		Sections: sections,
	})
	if err != nil {
		return resultSet{}, err
	}
	jsonb = append(jsonb, '\n')

	return resultSet{
		reps: map[string]rep{
			ctText: newRep(text),
			ctCSV:  newRep([]byte(csvb.String())),
			ctJSON: newRep(jsonb),
		},
		elapsed: res.Elapsed,
	}, nil
}

// tableRep renders one listing in one content type: rows marshalled
// for JSON, the table printed for text, its document for CSV. table is
// only called for the two tabular types.
func tableRep(ct string, rows any, table func() *report.Table) rep {
	var body []byte
	if ct == ctJSON {
		b, _ := json.Marshal(rows)
		body = append(b, '\n')
	} else {
		rec := report.NewRecorder()
		table().Fprint(rec)
		body = rec.Bytes()
		if ct == ctCSV {
			var csvb strings.Builder
			rec.Document().CSV(&csvb)
			body = []byte(csvb.String())
		}
	}
	return newRep(body)
}

// writeNegotiated answers one GET of a negotiable resource: pick the
// content type from Accept (406 envelope when nothing offered is
// acceptable), ask get for that representation, then Vary + ETag, 304
// on a matching If-None-Match, else Content-Type, Content-Length and
// the body. The body is held whole, so declaring its length keeps
// net/http from chunking it and lets the router's ReverseProxy relay
// it without a flush per write. get runs after negotiation, so an
// unacceptable request costs no lookup or run; it sets any
// resource-specific headers itself, and returns false when it has
// already answered with an error.
func writeNegotiated(w http.ResponseWriter, r *http.Request, get func(ct string) (rep, bool)) {
	ct := negotiate(r.Header.Get("Accept"))
	if ct == "" {
		WriteError(w, r, http.StatusNotAcceptable, codeNotAcceptable,
			"acceptable types: text/plain, text/csv, application/json", "")
		return
	}
	rp, ok := get(ct)
	if !ok {
		return
	}
	w.Header().Set("Vary", "Accept")
	w.Header().Set("ETag", rp.etag)
	if etagMatch(r.Header.Get("If-None-Match"), rp.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Header()["Content-Length"] = rp.length
	w.Write(rp.body)
}

// etagOf returns the strong ETag of a representation: the quoted
// SHA-256 of its exact bytes.
func etagOf(b []byte) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%x", sha256.Sum256(b)))
}

// etagMatch reports whether an If-None-Match header value matches the
// given ETag. Per RFC 9110 §13.1.2 If-None-Match uses weak
// comparison: a W/ prefix on the presented validator is ignored.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// negotiate picks the response content type from an Accept header,
// honoring q-values and wildcards. An empty header means text/plain;
// "" is returned when nothing offered is acceptable (406).
func negotiate(accept string) string {
	if strings.TrimSpace(accept) == "" {
		return ctText
	}
	// Media types compare case-insensitively (RFC 9110 §12.5.1); the
	// offered types are already lowercase.
	accept = strings.ToLower(accept)
	bestQ := -1.0
	bestSpec := -1
	best := ""
	for _, offer := range offered {
		q, spec := acceptQ(accept, mediaType(offer))
		// Higher q wins; at equal q a more specific match wins; at
		// equal specificity the server preference order (offered)
		// stands.
		if q > 0 && (q > bestQ || (q == bestQ && spec > bestSpec)) {
			bestQ, bestSpec, best = q, spec, offer
		}
	}
	return best
}

// mediaType strips any parameters (";charset=...") from a content type.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// acceptQ returns the quality value the Accept header assigns to a
// media type, and the specificity of the clause that matched
// (2 exact, 1 type/*, 0 */*). q is 0 when no clause matches.
func acceptQ(accept, media string) (q float64, spec int) {
	typ := media[:strings.IndexByte(media, '/')]
	spec = -1
	for _, clause := range strings.Split(accept, ",") {
		parts := strings.Split(clause, ";")
		pat := strings.TrimSpace(parts[0])
		cq := 1.0
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "q="); ok {
				if f, ok := parseQ(v); ok {
					cq = f
				}
			}
		}
		var cs int
		switch pat {
		case media:
			cs = 2
		case typ + "/*":
			cs = 1
		case "*/*":
			cs = 0
		default:
			continue
		}
		// The most specific matching clause determines q (RFC 9110).
		if cs > spec {
			spec, q = cs, cq
		}
	}
	if spec < 0 {
		return 0, -1
	}
	return q, spec
}

// parseQ parses a qvalue, clamped to [0, 1]. A value that is not
// wholly a number — or is NaN, which no clamp or comparison tames — is
// malformed: ok is false and the clause keeps the default q=1.
func parseQ(s string) (q float64, ok bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return min(max(f, 0), 1), true
}

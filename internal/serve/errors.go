// The service's one error shape: every non-2xx response serve produces
// carries a machine-readable code alongside the human message, so
// clients branch on codes instead of substring-matching prose (which
// the tests now assert too). JSON clients get the structured envelope;
// text clients keep a one-line rendering of the same fields. The code
// vocabulary is part of the compatibility surface documented in this
// package's README — removing or renaming a code is a breaking change.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// The error-code vocabulary. Codes name the class of failure, not the
// HTTP status — a client retrying on invalid_scale is wrong whatever
// the status says.
const (
	codeNotAcceptable        = "not_acceptable"
	codeUnknownExperiment    = "unknown_experiment"
	codeInvalidScale         = "invalid_scale"
	codeScaleLimit           = "scale_limit"
	codeUnknownPlatform      = "unknown_platform"
	codeIncompatiblePlatform = "incompatible_platform"
	codeNoPlatformAxis       = "no_platform_axis"
	codeInvalidPlatform      = "invalid_platform"
	codeBodyTooLarge         = "body_too_large"
	codeUnknownJob           = "unknown_job"
	codeBadRequest           = "bad_request"
	codeRunFailed            = "run_failed"
	codeInternal             = "internal"
)

// errorEnvelope is the JSON error body: the message, the stable code,
// and an optional hint pointing at the endpoint that resolves the
// failure.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Hint  string `json:"hint,omitempty"`
}

// WriteError renders one failure in the client's negotiated shape:
// the JSON envelope when the Accept header resolves to JSON, otherwise
// a one-line text rendering carrying the same code and hint. (CSV has
// no error shape; CSV clients read the text line.) It is exported so
// the failures only a fronting router can have (an unreadable body, no
// live shard) come out in the same shape as a shard's own.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg, hint string) {
	if negotiate(r.Header.Get("Accept")) == ctJSON {
		w.Header().Set("Content-Type", ctJSON)
		w.WriteHeader(status)
		b, _ := json.Marshal(errorEnvelope{Error: msg, Code: code, Hint: hint})
		w.Write(append(b, '\n'))
		return
	}
	w.Header().Set("Content-Type", ctText)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	if hint != "" {
		fmt.Fprintf(w, "error: %s (%s) [%s]\n", msg, hint, code)
		return
	}
	fmt.Fprintf(w, "error: %s [%s]\n", msg, code)
}

// WriteBodyError answers a request whose body could not be read: 413
// body_too_large when it ran past its limit, 400 bad_request for any
// other failure. what names the body in the message. Both tiers use it,
// so an oversized body draws the same bytes from the router as from a
// shard.
func WriteBodyError(w http.ResponseWriter, r *http.Request, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, r, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("%s exceeds the %d-byte limit", what, mbe.Limit), "")
		return
	}
	WriteError(w, r, http.StatusBadRequest, codeBadRequest,
		fmt.Sprintf("reading request body: %v", err), "")
}

// WriteJSON answers status with v marshaled as a newline-terminated
// JSON body: the always-JSON endpoints (the job API, the trace
// listing, the platform resource) and the router's merged job listing.
// A value that does not marshal draws the internal envelope instead,
// in JSON without negotiation — the response was going to be JSON
// regardless.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(errorEnvelope{Error: err.Error(), Code: codeInternal})
	}
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// platformError classifies a core platform-validation failure into the
// envelope's vocabulary via the typed sentinels, so every handler that
// calls CheckPlatform renders the same code for the same failure.
func platformError(err error) (status int, code, hint string) {
	switch {
	case errors.Is(err, core.ErrUnknownPlatform):
		return http.StatusBadRequest, codeUnknownPlatform,
			"GET /platforms lists every preset and registered custom platform"
	case errors.Is(err, core.ErrIncompatiblePlatform):
		return http.StatusBadRequest, codeIncompatiblePlatform,
			"GET /platforms/{name} lists the experiments a platform supports"
	case errors.Is(err, core.ErrNoPlatformAxis):
		return http.StatusBadRequest, codeNoPlatformAxis,
			"omit the platform parameter for this experiment"
	default:
		return http.StatusBadRequest, codeBadRequest, ""
	}
}

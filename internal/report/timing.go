// Run-timing capture: the Recorder carries the active run's span tree
// alongside the text and structured-row captures. The timing tree is
// deliberately NOT part of Document — report bodies (text, CSV, JSON)
// must stay byte-identical whether or not tracing is wired up — so it
// rides as its own machine-readable section, queryable via the serving
// layer's GET /debug/traces and printable via charhpc -trace.
package report

import "repro/internal/obs"

// SetSpan attaches the active run span to the Recorder. core.Run calls
// this before handing the Recorder to an experiment; experiments (and
// core's phase helper) retrieve it through Span to open child spans
// per platform and per probe phase.
func (r *Recorder) SetSpan(s *obs.Span) { r.span = s }

// Span returns the attached run span, nil when tracing is not wired
// (plain Recorders, rebuilt cache entries). All obs.Span methods are
// nil-safe, so callers use the result unconditionally.
func (r *Recorder) Span() *obs.Span { return r.span }

// Package obs is the repository's observability core: metrics,
// structured logs, and run-span traces, with zero dependencies beyond
// the standard library so every layer (serve, core, diskcache, par,
// the binaries) can instrument itself without import cycles or
// third-party clients.
//
// Three instruments live here:
//
//   - Metrics: a Registry of atomic Counters, fixed-bucket Histograms,
//     and counters and gauges read at scrape time from counts another
//     package keeps (CounterFunc, GaugeFunc), rendered in the
//     Prometheus text exposition format (WritePrometheus) — what
//     GET /metrics serves.
//   - Logs: a line-oriented Logger emitting either human text or
//     structured JSON, one object per line, with ordered key/value
//     fields — what the daemon's access log and shutdown summary use.
//   - Traces: a Span tree per experiment run (child spans per platform
//     and probe phase) collected into a TraceBuffer ring — what
//     GET /debug/traces and charhpc -trace render.
//
// Everything is safe for concurrent use; instruments are lock-free
// atomics on the hot path and a scrape observes a consistent-enough
// snapshot (each sample individually atomic, the canonical Prometheus
// contract).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension: a key/value pair fixed at instrument
// creation. Keep label cardinality bounded (handler names, status
// codes, cache tiers) — every distinct label set is its own series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// DefBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-minute full-scale runs.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Counter is a monotonically increasing sample. Like every instrument
// here, a nil *Counter is a valid no-op, so optional instrumentation
// calls through without guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n; negative deltas are ignored so the
// series stays monotonic no matter what a caller computes.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive
// upper limits in ascending order; an implicit +Inf bucket catches
// the rest. Observations accumulate a float64 sum (CAS loop) and
// per-bucket counts (atomic), so Observe is safe under full
// concurrency with scrapes. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the one-liner
// request handlers and cache fills use.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metricKind tags a family's exposition TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instrument inside a family. A counter series
// renders count, its Counter's Value or a CounterFunc; a gauge renders
// fn.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	count  func() int64
	h      *Histogram
	fn     func() float64
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind
	by   map[string]*series // rendered label string → series
}

// Registry holds named metric families and renders them in the
// Prometheus text format. Instrument lookup is get-or-create: calling
// Counter twice with the same name and labels returns the same
// instrument, so callers need not cache handles (though hot paths
// should). The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the series for (name, labels), creating family and
// series as needed. The caller must hold r.mu — instrument fields on
// the returned series may only be written under the same lock, or a
// concurrent get-or-create races the initialization. Registering one
// name as two different kinds is a programming error and panics at
// init/first-use time. The label key is rendered into a stack buffer,
// so a hit allocates nothing; only a miss copies it into a string.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, by: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	var buf [128]byte
	key := appendLabels(buf[:0], labels)
	s := f.by[string(key)]
	if s == nil {
		ls := string(key)
		s = &series{labels: ls}
		f.by[ls] = s
	}
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
		s.count = s.c.Value
	}
	return s.c
}

// CounterFunc registers a counter whose value is read at scrape time
// from a count another package keeps. fn must never decrease. It
// renders exactly as a Counter does.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindCounter, labels).count = fn
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// uptime, cache entry counts, anything already tracked elsewhere.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	s.fn = fn
}

// Histogram returns the histogram named name with the given bucket
// bounds (nil means DefBuckets) and labels. Bounds must be ascending;
// they are fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
			}
		}
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		s.h = h
	}
	return s.h
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families and series in
// sorted order so the output is deterministic for goldens and diffs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		// Snapshot and sort the series under the registry lock so a
		// concurrent lookup's map write cannot race the render.
		r.mu.Lock()
		keys := make([]string, 0, len(f.by))
		for k := range f.by {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.by[k]
		}
		r.mu.Unlock()

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch {
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatSample(s.fn()))
			case s.count != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.count())
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket
// samples per le bound, +Inf, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, formatSample(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatSample(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum)
}

// withLE splices the le label into an already-rendered label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// appendLabels appends a label set rendered as {k="v",...}, keys
// sorted, values escaped — the canonical series identity inside a
// family — to b. Up to four labels are sorted in place on the stack.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	var arr [4]Label
	ls := append(arr[:0], labels...)
	for i := 1; i < len(ls); i++ { // insertion sort: stable and allocation-free
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	b = append(b, '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, `="`...)
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				b = append(b, `\\`...)
			case '\n':
				b = append(b, `\n`...)
			case '"':
				b = append(b, `\"`...)
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatSample renders a float sample the way Prometheus clients do:
// integers below 2^53 (all exact in a float64) in plain digits, the
// rest as the shortest round-trip representation.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

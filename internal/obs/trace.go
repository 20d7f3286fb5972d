package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed node of a run's trace tree: an experiment run at
// the root, platforms and probe phases as children. Spans are built
// live (StartSpan/StartChild/End) and then read as an immutable tree —
// JSON-marshalable for GET /debug/traces, text-renderable for
// charhpc -trace.
//
// Attrs carries small identifying strings (experiment ID, scale,
// platform). Children keep creation order, which for the serial
// per-platform loops inside an experiment is also chronological order.
type Span struct {
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Start    time.Time         `json:"start"`
	Elapsed  float64           `json:"elapsed_seconds"`
	Children []*Span           `json:"children,omitempty"`

	mu             sync.Mutex
	ended          bool
	started, onEnd func(*Span) // the observer callbacks, see Observe
}

// Observe attaches two callbacks to the span — the bridge between the
// tracer and anything that wants progress events while a run is still
// going (the async job event stream). started fires when a child span
// is opened under an observed span (not for the span Observe was
// called on — the caller already knows that one started); ended fires
// on the first End of any observed span, this one included. Children
// opened after the call inherit both, so observing a run's root span
// streams the whole tree as it grows. Callbacks fire outside the
// span's lock, from the goroutine driving the span, and must be safe
// for concurrent use when the tree has concurrent children. Either
// callback may be nil, and so may the span.
func (s *Span) Observe(started, ended func(*Span)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.started, s.onEnd = started, ended
	s.mu.Unlock()
}

// StartSpan opens a root span named name, started now.
func StartSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// StartChild opens and returns a child span under s. Safe for
// concurrent children (the tree locks per node); a nil receiver
// returns nil, so call sites inside optional instrumentation need no
// guards — every Span method tolerates a nil receiver.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.mu.Lock()
	c.started, c.onEnd = s.started, s.onEnd
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	if c.started != nil {
		c.started(c)
	}
	return c
}

// SetAttr records one identifying attribute on the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
	s.mu.Unlock()
}

// End closes the span, fixing its elapsed time. Idempotent: only the
// first End sets the duration, so a deferred End after an explicit one
// cannot stretch the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	var ended func(*Span)
	if !s.ended {
		s.ended = true
		s.Elapsed = time.Since(s.Start).Seconds()
		ended = s.onEnd
	}
	s.mu.Unlock()
	if ended != nil {
		ended(s)
	}
}

// Duration returns the span's elapsed time (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.Elapsed * float64(time.Second))
}

// WriteTree renders the span tree as indented text, one line per span
// with its elapsed time — what charhpc -trace prints:
//
//	M1  12.3ms
//	  measure/ladder  8.1ms
//	  model/smp-1n  0.2ms
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) {
	s.mu.Lock()
	name, attrs := s.Name, s.Attrs
	elapsed := time.Duration(s.Elapsed * float64(time.Second))
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), name)
	if len(attrs) > 0 {
		line += " " + renderAttrs(attrs)
	}
	fmt.Fprintf(w, "%s  %s\n", line, elapsed.Round(time.Microsecond))
	for _, c := range children {
		c.writeTree(w, depth+1)
	}
}

// renderAttrs renders attributes deterministically: the identity keys
// first, the rest sorted.
func renderAttrs(attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for _, k := range []string{"id", "scale", "platform"} {
		if _, ok := attrs[k]; ok {
			keys = append(keys, k)
		}
	}
	rest := make([]string, 0, len(attrs))
	for k := range attrs {
		if k != "id" && k != "scale" && k != "platform" {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	keys = append(keys, rest...)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// MarshalJSON locks the span while the default encoding runs, so a
// scrape racing a live child append reads a consistent node.
func (s *Span) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type plain struct {
		Name     string            `json:"name"`
		Attrs    map[string]string `json:"attrs,omitempty"`
		Start    time.Time         `json:"start"`
		Elapsed  float64           `json:"elapsed_seconds"`
		Children []*Span           `json:"children,omitempty"`
	}
	return json.Marshal(plain{s.Name, s.Attrs, s.Start, s.Elapsed, s.Children})
}

// TraceBuffer retains the last N completed run traces — a fixed ring,
// newest first on read, so /debug/traces costs O(N) memory no matter
// how long the daemon runs.
type TraceBuffer struct {
	mu     sync.Mutex
	ring   []*Span
	next   int
	filled bool
}

// NewTraceBuffer returns a buffer retaining the last n traces
// (n < 1 is treated as 1).
func NewTraceBuffer(n int) *TraceBuffer {
	if n < 1 {
		n = 1
	}
	return &TraceBuffer{ring: make([]*Span, n)}
}

// Add records one completed trace, evicting the oldest when full.
func (b *TraceBuffer) Add(s *Span) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	b.ring[b.next] = s
	b.next++
	if b.next == len(b.ring) {
		b.next, b.filled = 0, true
	}
	b.mu.Unlock()
}

// Recent returns up to n retained traces, newest first (n <= 0 means
// all retained).
func (b *TraceBuffer) Recent(n int) []*Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	size := b.next
	if b.filled {
		size = len(b.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, b.ring[(b.next-i+len(b.ring))%len(b.ring)])
	}
	return out
}

// reqCounter distinguishes request IDs when the random source fails.
var reqCounter atomic.Int64

// NewRequestID returns a fresh 16-hex-char request ID — the value the
// serving layer stamps on X-Request-ID and threads through access
// logs. Random (crypto/rand) with a counter fallback, so IDs are
// unique per process even without entropy.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return fmt.Sprintf("req-%016x", reqCounter.Add(1))
	}
	return hex.EncodeToString(buf[:])
}

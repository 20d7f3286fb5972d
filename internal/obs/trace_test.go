package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpanTreeOrdering pins the tree contract: children appear under
// their parent in creation order, attributes survive, and End fixes a
// positive elapsed time that only the first End sets.
func TestSpanTreeOrdering(t *testing.T) {
	root := StartSpan("M1")
	root.SetAttr("id", "M1")
	a := root.StartChild("measure/ladder")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.StartChild("model/smp-1n")
	c := b.StartChild("fit")
	c.End()
	b.End()
	root.End()
	first := root.Duration()
	root.End() // idempotent: must not stretch the span
	if root.Duration() != first {
		t.Errorf("second End changed duration: %v -> %v", first, root.Duration())
	}

	if len(root.Children) != 2 || root.Children[0] != a || root.Children[1] != b {
		t.Fatalf("children out of order: %+v", root.Children)
	}
	if len(b.Children) != 1 || b.Children[0] != c {
		t.Fatalf("grandchild missing: %+v", b.Children)
	}
	if a.Duration() <= 0 {
		t.Errorf("child elapsed not set: %v", a.Duration())
	}
	if root.Duration() < a.Duration() {
		t.Errorf("parent (%v) shorter than child (%v)", root.Duration(), a.Duration())
	}
	if root.Attrs["id"] != "M1" {
		t.Errorf("attr lost: %v", root.Attrs)
	}
}

// TestSpanJSONRoundTrip checks the tree marshals with the wire field
// names /debug/traces clients depend on.
func TestSpanJSONRoundTrip(t *testing.T) {
	root := StartSpan("T1")
	root.SetAttr("platform", "gige-8n")
	root.StartChild("phase").End()
	root.End()
	buf, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Name    string            `json:"name"`
		Attrs   map[string]string `json:"attrs"`
		Elapsed float64           `json:"elapsed_seconds"`
		Kids    []json.RawMessage `json:"children"`
	}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "T1" || back.Attrs["platform"] != "gige-8n" || len(back.Kids) != 1 {
		t.Errorf("round trip lost fields: %s", buf)
	}
}

// TestSpanNilSafe pins the no-op contract instrumentation points rely
// on: every method on a nil *Span is safe.
func TestSpanNilSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if c := s.StartChild("x"); c != nil {
		t.Errorf("nil span produced a child: %v", c)
	}
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span has duration %v", d)
	}
	s.WriteTree(&strings.Builder{})
}

// TestWriteTreeIndentation pins the text rendering charhpc -trace
// emits: two-space indentation per depth, attrs in brackets.
func TestWriteTreeIndentation(t *testing.T) {
	root := StartSpan("M5")
	root.SetAttr("platform", "fat-1n")
	root.StartChild("model/fat-1n").End()
	root.End()
	var b strings.Builder
	root.WriteTree(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %q", b.String())
	}
	if !strings.HasPrefix(lines[0], "M5 [platform=fat-1n]") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  model/fat-1n") {
		t.Errorf("child line = %q", lines[1])
	}
}

// TestTraceBufferRing fills the ring past capacity and checks Recent
// returns the newest first, oldest evicted.
func TestTraceBufferRing(t *testing.T) {
	b := NewTraceBuffer(3)
	if got := b.Recent(0); len(got) != 0 {
		t.Fatalf("empty buffer returned %d traces", len(got))
	}
	var spans []*Span
	for i := 0; i < 5; i++ {
		s := StartSpan(strings.Repeat("x", i+1))
		s.End()
		spans = append(spans, s)
		b.Add(s)
	}
	got := b.Recent(0)
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	// Newest first: spans 4, 3, 2.
	for i, want := range []*Span{spans[4], spans[3], spans[2]} {
		if got[i] != want {
			t.Errorf("Recent[%d] = %q, want %q", i, got[i].Name, want.Name)
		}
	}
	if got := b.Recent(2); len(got) != 2 || got[0] != spans[4] {
		t.Errorf("Recent(2) wrong: %v", got)
	}
}

// TestNewRequestID sanity-checks uniqueness and shape.
func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("consecutive request IDs collided: %s", a)
	}
	if len(a) != 16 {
		t.Errorf("request ID %q has length %d, want 16", a, len(a))
	}
}

// TestTraceBufferConcurrentWrap hammers a ring smaller than the writer
// count so every Add races an eviction (run with -race in CI): the
// buffer must stay consistent — exactly capacity traces retained, all
// of them traces that were actually added, newest-first de-duplicated.
func TestTraceBufferConcurrentWrap(t *testing.T) {
	const writers, each, capacity = 8, 200, 3
	b := NewTraceBuffer(capacity)
	valid := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := StartSpan(fmt.Sprintf("w%d/%d", w, i))
				s.End()
				mu.Lock()
				valid[s.Name] = true
				mu.Unlock()
				b.Add(s)
				// Readers race the wrap-around too.
				if got := b.Recent(0); len(got) > capacity {
					t.Errorf("Recent returned %d traces, capacity %d", len(got), capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := b.Recent(0)
	if len(got) != capacity {
		t.Fatalf("retained %d traces after wrap, want %d", len(got), capacity)
	}
	seen := map[string]bool{}
	for _, s := range got {
		if s == nil || !valid[s.Name] {
			t.Fatalf("ring holds a trace that was never added: %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("trace %q retained twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestSpanObserver pins the observer contract: children inherit the
// observer and fire Started on open; every observed span fires Ended
// exactly once (repeat Ends are swallowed with the duration); the
// root the observer was attached to fires Ended but not Started.
func TestSpanObserver(t *testing.T) {
	var started, ended []string
	root := StartSpan("run")
	root.Observe(
		func(s *Span) { started = append(started, s.Name) },
		func(s *Span) { ended = append(ended, s.Name) },
	)
	a := root.StartChild("a")
	aa := a.StartChild("a/a")
	aa.End()
	aa.End() // second End: no duplicate callback
	a.End()
	b := root.StartChild("b")
	b.End()
	root.End()

	if want := "[a a/a b]"; fmt.Sprint(started) != want {
		t.Errorf("started = %v, want %v (root not included)", started, want)
	}
	if want := "[a/a a b run]"; fmt.Sprint(ended) != want {
		t.Errorf("ended = %v, want %v", ended, want)
	}
}

// TestSpanObserverNilSafe: attaching to a nil span, attaching two nil
// callbacks, and attaching one of the two are all inert where nil.
func TestSpanObserverNilSafe(t *testing.T) {
	var nilSpan *Span
	nilSpan.Observe(func(*Span) {}, func(*Span) {}) // no panic
	s := StartSpan("x")
	s.Observe(nil, nil)
	s.StartChild("c").End()
	s.End()
	var started, ended int
	s2 := StartSpan("y")
	s2.Observe(func(*Span) { started++ }, nil) // nil ended skipped
	s2.StartChild("c").End()
	s2.End()
	s3 := StartSpan("z")
	s3.Observe(nil, func(*Span) { ended++ }) // nil started skipped
	s3.StartChild("c").End()
	s3.End()
	if started != 1 || ended != 2 {
		t.Errorf("started %d, ended %d; want 1 and 2", started, ended)
	}
}

// TestSpanObserverConcurrentChildren: callbacks fire outside the
// span's lock, so concurrent children observing into a shared sink
// must not deadlock or race (run with -race in CI).
func TestSpanObserverConcurrentChildren(t *testing.T) {
	var events atomic.Int64
	root := StartSpan("run")
	root.Observe(
		func(s *Span) { events.Add(1) },
		func(s *Span) {
			// Re-entering the tree from a callback (as the SSE hook
			// layer does when it marshals the span) must be safe.
			_, _ = json.Marshal(s)
			events.Add(1)
		},
	)
	const workers, spansEach = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansEach; i++ {
				c := root.StartChild(fmt.Sprintf("w%d/%d", w, i))
				c.SetAttr("i", fmt.Sprint(i))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	// workers*spansEach starts + the same ends + the root's end.
	if want := int64(2*workers*spansEach + 1); events.Load() != want {
		t.Errorf("observer fired %d times, want %d", events.Load(), want)
	}
}

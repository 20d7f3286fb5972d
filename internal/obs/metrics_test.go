package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics: bounds are
// inclusive upper limits, a value exactly on a bound lands in that
// bucket, and everything past the last bound lands in +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 10, 100} {
		h.Observe(v)
	}
	want := []int64{2, 4, 6, 7} // cumulative per bucket incl. +Inf
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum != want[i] {
			t.Errorf("bucket %d: cumulative %d, want %d", i, cum, want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+1+5+10+100; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

// TestCounterMonotonicUnderConcurrentScrape hammers a counter and a
// histogram from many goroutines while scraping concurrently — run
// with -race, this is the data-race gate — and asserts the counter
// never moves backwards across scrapes and lands exactly on the total.
func TestCounterMonotonicUnderConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "operations", L("kind", "test"))
	h := r.Histogram("op_seconds", "latency", nil, L("kind", "test"))

	const workers, perWorker = 8, 1000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			v := c.Value()
			if v < last {
				t.Errorf("counter went backwards: %d < %d", v, last)
				return
			}
			last = v
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(0.001)
				// A negative delta must be ignored, not subtracted.
				c.Add(-5)
			}
		}()
	}
	writers.Wait()
	close(stop)
	scraper.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestPrometheusExpositionGolden pins the exact exposition bytes for a
// small fixed registry: HELP/TYPE lines, sorted families and series,
// label escaping, histogram bucket/sum/count suffixes, and a
// scrape-time counter sharing a family with held ones.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_requests_total", "requests served", L("handler", "get"), L("code", "200")).Add(3)
	r.Counter("b_requests_total", "requests served", L("handler", "get"), L("code", "404")).Inc()
	r.CounterFunc("b_requests_total", "requests served", func() int64 { return 1000000 }, L("handler", "put"), L("code", "200"))
	r.GaugeFunc("c_entries", "cache entries", func() float64 { return 7 }, L("tier", `we"ird`))
	r.GaugeFunc("c_entries", "cache entries", func() float64 { return 8 }, L("tier", `back\slash`))
	r.GaugeFunc("c_entries", "cache entries", func() float64 { return 9 }, L("tier", "new\nline"))
	r.Counter("e_wide_total", "more labels than the stack holds",
		L("e", "5"), L("c", "3"), L("a", "1"), L("d", "4"), L("b", "2")).Inc()
	r.GaugeFunc("d_uptime_seconds", "process uptime", func() float64 { return 1.5 })
	h := r.Histogram("a_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_seconds latency
# TYPE a_seconds histogram
a_seconds_bucket{le="0.01"} 1
a_seconds_bucket{le="0.1"} 2
a_seconds_bucket{le="+Inf"} 3
a_seconds_sum 5.055
a_seconds_count 3
# HELP b_requests_total requests served
# TYPE b_requests_total counter
b_requests_total{code="200",handler="get"} 3
b_requests_total{code="200",handler="put"} 1000000
b_requests_total{code="404",handler="get"} 1
# HELP c_entries cache entries
# TYPE c_entries gauge
c_entries{tier="back\\slash"} 8
c_entries{tier="new\nline"} 9
c_entries{tier="we\"ird"} 7
# HELP d_uptime_seconds process uptime
# TYPE d_uptime_seconds gauge
d_uptime_seconds 1.5
# HELP e_wide_total more labels than the stack holds
# TYPE e_wide_total counter
e_wide_total{a="1",b="2",c="3",d="4",e="5"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestSameInstrumentReturned checks the get-or-create contract: the
// same (name, labels) yields the same instrument, and label order
// does not matter.
func TestSameInstrumentReturned(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters diverged")
	}
	// Past the lookup's stack buffers: more labels and more bytes.
	long := strings.Repeat("v", 200)
	wide := r.Counter("x_total", "", L("e", long), L("d", "4"), L("c", "3"), L("b", "2"), L("a", "1"))
	if wide != r.Counter("x_total", "", L("a", "1"), L("b", "2"), L("c", "3"), L("d", "4"), L("e", long)) {
		t.Error("same wide label set returned distinct counters")
	}
	if wide == a {
		t.Error("distinct label sets returned one counter")
	}
}

// TestLookupHitAllocatesNothing: the middleware looks up a counter
// and a histogram per request, so a hit must not render a string.
func TestLookupHitAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "", L("handler", "get"), L("code", "200"))
	r.Histogram("req_seconds", "", nil, L("handler", "get"), L("code", "200"))
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("req_total", "", L("handler", "get"), L("code", "200")).Inc()
	}); n != 0 {
		t.Errorf("counter hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Histogram("req_seconds", "", nil, L("handler", "get"), L("code", "200")).Observe(0.001)
	}); n != 0 {
		t.Errorf("histogram hit: %v allocs, want 0", n)
	}
}

// TestKindConflictPanics pins that reusing a family name as another
// metric kind fails loudly at registration, not silently at scrape.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("gauge registration over a counter name did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

// TestFormatSample: integral samples print in plain digits whatever
// their size, fractions as the shortest round-trip form.
func TestFormatSample(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{999999, "999999"},
		{1e6, "1000000"},
		{1234567, "1234567"},
		{0.0005, "0.0005"},
		{2.5, "2.5"},
	} {
		if got := formatSample(tc.v); got != tc.want {
			t.Errorf("formatSample(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

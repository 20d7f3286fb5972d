// Layer benchmarks and fuzz targets beside the rendering code: the
// stages bench/ reports as serve.hit_accept_q_ns (negotiate),
// serve.fill_render_us (renderResult) and serve.hit200_ns /
// serve.hit304_ns (writeNegotiated), so a harness delta can be chased
// with `go test -bench . ./internal/serve`.
package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

func BenchmarkNegotiate(b *testing.B) {
	for _, c := range []struct{ name, accept string }{
		{"empty", ""},
		{"exact", "application/json"},
		{"q-valued", "text/csv;q=0.9, application/json;q=0.8, text/plain;q=0.1"},
		{"wildcard", "text/html, */*;q=0.1"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if negotiate(c.accept) == "" {
					b.Fatal("nothing negotiated")
				}
			}
		})
	}
}

// benchResult is one real quick-scale execution of id to render.
func benchResult(b *testing.B, id string) core.Result {
	b.Helper()
	e, _ := core.Get(id)
	res := core.Run(e, core.Request{Scale: core.Quick})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	return res
}

func BenchmarkRenderResult(b *testing.B) {
	res := benchResult(b, "T1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := renderResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteNegotiatedSharesContentLength: every 200 of a representation
// declares its body's length from the one header slice newRep built,
// and since that slice is full (cap == len), a handler that appends to
// one response's value leaves the representation and every other
// response as they were.
func TestWriteNegotiatedSharesContentLength(t *testing.T) {
	rp := newRep([]byte("twelve bytes"))
	if len(rp.length) != 1 || cap(rp.length) != 1 {
		t.Fatalf("Content-Length slice len %d cap %d, want 1 and 1", len(rp.length), cap(rp.length))
	}
	get := func(string) (rep, bool) { return rp, true }
	r := httptest.NewRequest(http.MethodGet, "/experiments/T1", nil)
	first, second := httptest.NewRecorder(), httptest.NewRecorder()
	writeNegotiated(first, r, get)
	first.Header().Add("Content-Length", "0")
	writeNegotiated(second, r, get)
	if got := second.Result().Header["Content-Length"]; len(got) != 1 || got[0] != "12" {
		t.Errorf("second response Content-Length %q, want [12]", got)
	}
	if len(rp.length) != 1 || rp.length[0] != "12" {
		t.Errorf("representation's Content-Length became %q", rp.length)
	}
}

func BenchmarkWriteNegotiated(b *testing.B) {
	rs, err := renderResult(benchResult(b, "T1"))
	if err != nil {
		b.Fatal(err)
	}
	get := func(ct string) (rep, bool) { return rs.reps[ct], true }
	for _, c := range []struct {
		name   string
		inm    string
		status int
	}{
		{"200", "", http.StatusOK},
		{"304", rs.reps[ctJSON].etag, http.StatusNotModified},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodGet, "/experiments/T1", nil)
			r.Header.Set("Accept", "application/json")
			if c.inm != "" {
				r.Header.Set("If-None-Match", c.inm)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				writeNegotiated(w, r, get)
				if w.Code != c.status {
					b.Fatalf("status %d, want %d", w.Code, c.status)
				}
			}
		})
	}
}

// FuzzNegotiate: whatever the Accept header, negotiate never panics
// and answers "" (406) or one of the three offered types.
func FuzzNegotiate(f *testing.F) {
	for _, s := range []string{"", "*/*", "text/*;q=0.5", "application/json;q=nan", "text/csv;q=0.5abc, */*;q=0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, accept string) {
		switch got := negotiate(accept); got {
		case "", ctText, ctJSON, ctCSV:
		default:
			t.Errorf("negotiate(%q) = %q, not an offered type", accept, got)
		}
	})
}

// FuzzETagMatch: never panics on any header, and an ETag this package
// mints always matches itself — bare, weak-prefixed, or last in a
// list after whatever else the client sent.
func FuzzETagMatch(f *testing.F) {
	f.Add(`"abc"`, []byte("abc"))
	f.Add(`W/"abc", "def"`, []byte{})
	f.Add("*", []byte("body"))
	f.Fuzz(func(t *testing.T, header string, body []byte) {
		etagMatch(header, header)
		e := etagOf(body)
		for _, h := range []string{e, "W/" + e, header + ", " + e} {
			if !etagMatch(h, e) {
				t.Errorf("etagMatch(%q, %q) = false", h, e)
			}
		}
	})
}

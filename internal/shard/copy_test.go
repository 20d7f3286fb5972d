package shard

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// bigBody is what shard i sends for path: 100–140 KiB of bytes that
// differ per shard and per path, so a pooled copy buffer handed to two
// copies at once, or a response relayed from the wrong shard, shows up
// as a mismatch.
func bigBody(i int, path string) []byte {
	h := fnv.New64a()
	fmt.Fprint(h, i, path)
	seed := h.Sum64()
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	b := make([]byte, 100<<10+int(seed%(40<<10)))
	for j := range b {
		b[j] = byte(rng.Uint32())
	}
	return b
}

// bigShard serves bigBody: /experiments/sse as an event stream
// flushed in 40 KiB chunks, every other path with an ETag and a status
// that depends on the path.
func bigShard(i int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := bigBody(i, r.URL.Path)
		if r.URL.Path == "/experiments/sse" {
			w.Header().Set("Content-Type", "text/event-stream")
			for len(body) > 0 {
				n := min(len(body), 40<<10)
				w.Write(body[:n])
				w.(http.Flusher).Flush()
				body = body[n:]
			}
			return
		}
		w.Header().Set("ETag", fmt.Sprintf(`"%x"`, sha256.Sum256(body)))
		w.WriteHeader(http.StatusOK + len(r.URL.Path)%2*(http.StatusNonAuthoritativeInfo-http.StatusOK))
		w.Write(body)
	})
}

// fetched is one response as a client saw it.
type fetched struct {
	status int
	etag   string
	body   string
}

func fetch(url string) (fetched, error) {
	resp, err := http.Get(url)
	if err != nil {
		return fetched{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return fetched{resp.StatusCode, resp.Header.Get("ETag"), string(b)}, err
}

// TestConcurrentCopiesKeepTheirBytes drives 16 concurrent GETs of large
// bodies and one SSE stream through the router's pooled copy buffers
// and checks each response — status, ETag, body — against what the
// owning shard sends directly. Run it under -race: a buffer back in
// the pool while a copy still reads it is a race as well as a
// corrupted body.
func TestConcurrentCopiesKeepTheirBytes(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(bigShard(i))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	proxy := httptest.NewServer(rt)
	t.Cleanup(proxy.Close)
	ring := NewRing(DefaultVNodes)
	for _, u := range urls {
		ring.Add(u)
	}

	// Eight keys owned by each shard, and the stream wherever it lands.
	owner := func(path string) string {
		o, _ := ring.Owner(routeKey(strings.TrimPrefix(path, "/experiments/"), "", ""))
		return o
	}
	paths := []string{"/experiments/sse"}
	owned := map[string]int{}
	for k := 0; len(paths) < 17; k++ {
		path := fmt.Sprintf("/experiments/K%d", k)
		if o := owner(path); owned[o] < 8 {
			owned[o]++
			paths = append(paths, path)
		}
	}
	want := map[string]fetched{}
	for _, path := range paths {
		f, err := fetch(owner(path) + path)
		if err != nil {
			t.Fatal(err)
		}
		want[path] = f
	}

	var wg sync.WaitGroup
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				got, err := fetch(proxy.URL + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				if w := want[path]; got.status != w.status || got.etag != w.etag || got.body != w.body {
					t.Errorf("%s round %d: routed %d %s (%d bytes), owner sent %d %s (%d bytes)",
						path, round, got.status, got.etag, len(got.body), w.status, w.etag, len(w.body))
					return
				}
			}
		}()
	}
	wg.Wait()
}

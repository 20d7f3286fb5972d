package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
)

// key is one cache key of the service at quick scale: an experiment on
// a platform preset ("" is the experiment's default platform set).
type key struct{ id, platform string }

func (k key) query() string {
	if k.platform == "" {
		return "id=" + k.id
	}
	return "id=" + k.id + "&platform=" + k.platform
}

func (k key) path() string {
	if k.platform == "" {
		return "/experiments/" + k.id
	}
	return "/experiments/" + k.id + "?platform=" + k.platform
}

func (k key) String() string {
	if k.platform == "" {
		return k.id
	}
	return k.id + "@" + k.platform
}

// fillSet is what cold_fill runs: every registered experiment except
// F2, F3 and F6, which cost 1-2.5 s each with up to 4x spread and would
// swamp a round (they stay visible as core.run_ms.*). The list is
// spelled out, not read from the registry, so an experiment added
// later does not silently change the workload.
var fillSet = []string{
	"T1", "T2", "T3", "T4",
	"F1", "F4", "F5", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
	"M1", "M2", "M3", "M4", "M5", "M6",
}

// allExperiments adds the three slow ones back for the layer table.
var allExperiments = append(append([]string(nil), fillSet...), "F2", "F3", "F6")

var presets = []string{"gige-8n", "ib-8n", "ib-64n", "smp-1n", "fat-1n", "bgp-64n"}

// goldenIDs are the experiments whose default-platform text output is
// pinned byte for byte by internal/core/testdata/golden.
var goldenIDs = []string{"T1", "M3", "M4", "M5", "M6"}

// hotKeys is the working set of the three hit-path workloads and of
// disk_load: the fill set plus the platform axis of the cheap modeled
// experiments, 45 keys.
func hotKeys() []key {
	var ks []key
	for _, id := range fillSet {
		ks = append(ks, key{id, ""})
	}
	for _, id := range []string{"T1", "M3", "M4"} {
		for _, p := range presets {
			ks = append(ks, key{id, p})
		}
	}
	for _, id := range []string{"M5", "M6"} {
		for _, p := range []string{"fat-1n", "bgp-64n"} {
			ks = append(ks, key{id, p})
		}
	}
	return ks
}

// accepts are the three negotiable representations; hot keys x accepts
// are the 135 (key, Accept) pairs requests are drawn from.
var accepts = [3]string{"text/plain", "text/csv", "application/json"}

const (
	acceptText = iota
	acceptCSV
)

// expect is what a correct response to one (key, Accept) pair carries.
type expect struct {
	etag   string
	length int
}

// catalog maps each key to its three expected representations. It is
// learned once, from the set-up daemon that fills the seed directory,
// and every later response of any daemon is held to it.
type catalog struct {
	keys []key
	want map[key]*[3]expect
}

// reply is one HTTP response as the checks need it.
type reply struct {
	status int
	etag   string
	body   []byte
}

// client is one closed-loop caller: its own keep-alive connection and
// a reused body buffer, so the generator's cost per request stays
// small beside the server's.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
	tr  *tracer // nil except in the traced replay
}

func newClient(tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(method, url, accept, ifNoneMatch string) (reply, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return reply{}, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	defer c.tr.request(req)()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: c.buf.Bytes()}, nil
}

func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// checker holds the cross-daemon facts: the golden text bodies and the
// csv ETags of the golden experiments, which must be identical on
// every daemon of the run however it came by the result (direct,
// routed, reloaded from disk, freshly computed).
type checker struct {
	golden map[string][]byte

	mu  sync.Mutex
	csv map[string]string
}

func newChecker(root string) (*checker, error) {
	ck := &checker{golden: map[string][]byte{}, csv: map[string]string{}}
	for _, id := range goldenIDs {
		b, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden", id+"_quick.txt"))
		if err != nil {
			return nil, err
		}
		ck.golden[id] = b
	}
	return ck, nil
}

// fresh checks a 200 whose bytes are not known in advance (set-up and
// cold fill): the ETag must be the sha256 of the body, golden text
// must match the golden file, golden csv must match every other daemon.
func (ck *checker) fresh(k key, accept int, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d, want 200", k, accepts[accept], r.status)
	}
	if got := etagOf(r.body); r.etag != got {
		return fmt.Errorf("%s %s: ETag %s is not the sha256 of the body (%s)", k, accepts[accept], r.etag, got)
	}
	gold, ok := ck.golden[k.id]
	if !ok || k.platform != "" {
		return nil
	}
	switch accept {
	case acceptText:
		if !bytes.Equal(r.body, gold) {
			return fmt.Errorf("%s text/plain differs from internal/core/testdata/golden/%s_quick.txt", k, k.id)
		}
	case acceptCSV:
		ck.mu.Lock()
		defer ck.mu.Unlock()
		if prev, seen := ck.csv[k.id]; !seen {
			ck.csv[k.id] = r.etag
		} else if prev != r.etag {
			return fmt.Errorf("%s text/csv ETag %s differs from another daemon's %s", k, r.etag, prev)
		}
	}
	return nil
}

// known checks a response against the catalog. n is the caller's
// request counter: one 200 in 16 is re-hashed, the rest are held to
// the learned ETag and length, which is what a client would notice.
func (cat *catalog) known(k key, accept int, conditional bool, n int, r reply) error {
	w := cat.want[k][accept]
	if r.etag != w.etag {
		return fmt.Errorf("%s %s: ETag %s, want %s", k, accepts[accept], r.etag, w.etag)
	}
	if conditional {
		if r.status != http.StatusNotModified || len(r.body) != 0 {
			return fmt.Errorf("%s %s: conditional GET gave status %d with %d body bytes, want 304 and none",
				k, accepts[accept], r.status, len(r.body))
		}
		return nil
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d, want 200", k, accepts[accept], r.status)
	}
	if len(r.body) != w.length {
		return fmt.Errorf("%s %s: %d body bytes, want %d", k, accepts[accept], len(r.body), w.length)
	}
	if n%16 == 0 && etagOf(r.body) != w.etag {
		return fmt.Errorf("%s %s: body does not hash to its ETag", k, accepts[accept])
	}
	return nil
}

// request is one generated GET of the hit-path workloads.
type request struct {
	key         key
	accept      int
	conditional bool // carries If-None-Match, expects 304
}

// requestStream is client c's share of the seeded request order:
// uniform over the 135 pairs, every 4th request conditional. The
// daemons see only these requests, never the seed.
func requestStream(seed int64, c int, keys []key) func() request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	n := 0
	return func() request {
		i := rng.Intn(len(keys) * len(accepts))
		n++
		return request{key: keys[i/len(accepts)], accept: i % len(accepts), conditional: n%4 == 0}
	}
}

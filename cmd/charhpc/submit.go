// The -submit client mode: drive a charhpcd daemon's async run API
// instead of executing locally. One POST /runs per selected
// experiment; with -follow the job's Server-Sent Events render as a
// live progress line and the terminal event hands off to the cached
// result, which is fetched and printed exactly as a local run's
// output block would be.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runSubmit is the -submit entry point: submits every selected
// experiment to the daemon at addr and, with follow, streams each
// job's progress and prints its result. A non-nil platformSpec (the
// canonical bytes behind -platform-file) is POSTed to /platforms
// first — content-hash naming guarantees the daemon resolves the
// request's custom-<hash> name to the identical machine. Returns the
// process exit code.
func runSubmit(addr string, ids []string, req core.Request, follow bool, platformSpec []byte, retries int) int {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	rt := newRetrier(retries)
	if platformSpec != nil {
		if err := registerPlatform(addr, platformSpec, rt); err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: registering %s on %s: %v\n", req.Platform, addr, err)
			return 1
		}
	}
	failed := 0
	for _, id := range ids {
		if err := submitOne(addr, id, req, follow, rt); err != nil {
			fmt.Fprintf(os.Stderr, "charhpc: %s: %v\n", id, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// registerPlatform POSTs one canonical platform spec to the daemon.
// 201 (first sighting) and 200 (already registered) both succeed —
// registration is idempotent by content hash.
func registerPlatform(addr string, spec []byte, rt *retrier) error {
	resp, err := rt.do(func() (*http.Response, error) {
		return http.Post(addr+"/platforms", "application/json", strings.NewReader(string(spec)))
	})
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// submitOne submits a single experiment and optionally follows it.
func submitOne(addr, id string, req core.Request, follow bool, rt *retrier) error {
	q := url.Values{"id": {id}, "scale": {req.Scale.String()}}
	if req.Platform != "" {
		q.Set("platform", req.Platform)
	}
	resp, err := rt.do(func() (*http.Response, error) {
		return http.Post(addr+"/runs?"+q.Encode(), "", nil)
	})
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("submit: bad response: %v", err)
	}
	if !follow {
		fmt.Printf("%s submitted: job %s  (%s%s)\n", id, sub.Job, addr, sub.EventsURL)
		return nil
	}
	return followJob(addr, id, sub, rt)
}

// followJob streams one job's SSE feed, rendering phase/section
// progress as a single live-updating line, then prints the result
// body the terminal event points at.
func followJob(addr, id string, sub serve.SubmitResponse, rt *retrier) error {
	resp, err := rt.do(func() (*http.Response, error) {
		return http.Get(addr + sub.EventsURL)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}

	var last jobs.Event
	sections := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: bad frame %q: %v", data, err)
		}
		switch {
		case ev.Terminal():
			last = ev
		case ev.Type == jobs.EventSection:
			sections++
			fmt.Printf("\r\033[K%s: section %q done (%d so far)", id, ev.Data["title"], sections)
		case ev.Type == jobs.EventPhase && ev.Data["state"] == "start":
			fmt.Printf("\r\033[K%s: %s ...", id, ev.Data["name"])
		case ev.Type == jobs.EventState:
			fmt.Printf("\r\033[K%s: %s", id, ev.Data["state"])
		}
		if ev.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if last.Type == "" {
		return fmt.Errorf("events: stream ended without a terminal event")
	}
	fmt.Printf("\r\033[K%s: %s  [job %s, %ss, tier %s]\n",
		id, last.Type, sub.Job, last.Data["elapsed_seconds"], last.Data["tier"])
	if last.Type != string(jobs.Done) {
		if msg := last.Data["error"]; msg != "" {
			return fmt.Errorf("job %s: %s", last.Type, msg)
		}
		return fmt.Errorf("job %s", last.Type)
	}

	// Hand-off: the terminal event names the cached result.
	res, err := rt.do(func() (*http.Response, error) {
		return http.Get(addr + last.Data["url"])
	})
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s", res.Status)
	}
	if etag := res.Header.Get("ETag"); etag != last.Data["etag"] {
		fmt.Fprintf(os.Stderr, "charhpc: %s: result etag %s differs from job's %s (re-run since?)\n",
			id, etag, last.Data["etag"])
	}
	_, err = io.Copy(os.Stdout, res.Body)
	return err
}

package serve

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestWarmPlan pins the one place the warm-up rule lives; Server.Warm
// and shard.Router.Warm both consume it.
func TestWarmPlan(t *testing.T) {
	t.Cleanup(cluster.PurgeCustoms)
	spec, err := cluster.ParseSpec([]byte(serveCustomSpec))
	if err != nil {
		t.Fatal(err)
	}
	custom, _ := cluster.RegisterCustom(spec)

	var all []string
	for _, e := range core.All() {
		all = append(all, e.ID+"@")
	}
	for _, c := range []struct {
		name           string
		ids, platforms []string
		want           []string // id@platform, in plan order
	}{
		{"nil ids is the whole registry, nil platforms the default set", nil, nil, all},
		{"empty string in the list is the default set", []string{"T1"}, []string{"", "gige-8n"}, []string{"T1@", "T1@gige-8n"}},
		{"platform-major order", []string{"T1", "T4"}, []string{"gige-8n", ""}, []string{"T1@gige-8n", "T4@gige-8n", "T1@", "T4@"}},
		{"unknown id skipped", []string{"T1", "Z9"}, nil, []string{"T1@"}},
		{"incompatible pair skipped", []string{"T1", "F1"}, []string{"smp-1n"}, []string{"T1@smp-1n"}},
		{"host-only experiment has no explicit platform", []string{"T2"}, []string{"", "gige-8n"}, []string{"T2@"}},
		{"unknown platform plans nothing", []string{"T1"}, []string{"cray-1"}, nil},
		{"registered custom", []string{"T1"}, []string{custom}, []string{"T1@" + custom}},
	} {
		var got []string
		for _, task := range WarmPlan(c.ids, c.platforms) {
			if task.Req.Scale != core.Quick {
				t.Errorf("%s: %s planned at scale %s, want quick", c.name, task.Exp.ID, task.Req.Scale)
			}
			got = append(got, task.Exp.ID+"@"+task.Req.Platform)
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s: plan %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseWarmPlatforms(t *testing.T) {
	got, err := ParseWarmPlatforms(" default, gige-8n,,smp-1n ")
	if err != nil || strings.Join(got, "|") != "|gige-8n|smp-1n" {
		t.Errorf("ParseWarmPlatforms = %q, %v; want [\"\" gige-8n smp-1n]", got, err)
	}
	if got, err := ParseWarmPlatforms(""); err != nil || got != nil {
		t.Errorf("empty list = %q, %v; want nil (WarmPlan's default axis)", got, err)
	}
	if _, err := ParseWarmPlatforms("default,cray-1"); err == nil ||
		!strings.Contains(err.Error(), `unknown warm-up platform "cray-1"`) {
		t.Errorf("unknown name: err = %v", err)
	}
}

// TestWarmDoesNotQueueTraffic: a request for a key still queued behind
// the warm-up pool fills it itself instead of waiting for the pool to
// reach it, and the key still executes exactly once.
func TestWarmDoesNotQueueTraffic(t *testing.T) {
	var runs atomic.Int32
	stub := stubRun(&runs, 0)
	t1Started, release := make(chan struct{}), make(chan struct{})
	srv := New(Config{RunFunc: func(e core.Experiment, r core.Request) core.Result {
		if e.ID == "T1" {
			close(t1Started)
			<-release
		}
		return stub(e, r)
	}})
	ts := newHTTPTestServer(t, srv)

	warmed := make(chan int)
	go func() { warmed <- srv.Warm(context.Background(), []string{"T1", "T4"}, nil, 1) }()
	<-t1Started

	resp, body := doGet(t, ts.URL+"/experiments/T4", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "answer") {
		t.Errorf("GET T4 behind a gated warm-up: %d %q", resp.StatusCode, body)
	}
	close(release)
	if n := <-warmed; n != 1 {
		t.Errorf("Warm executed %d, want 1 (T1; traffic got to T4 first)", n)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runs = %d, want 2 (each key exactly once)", got)
	}
}

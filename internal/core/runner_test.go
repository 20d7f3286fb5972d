package core

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// T1 is fully modeled (no host measurement), so its output is
// deterministic and comparable across runs.
const detTable = "T1"

func TestRunCapturesSerialOutput(t *testing.T) {
	e, _ := Get(detTable)
	var serial bytes.Buffer
	if err := e.Run(&serial, Request{Scale: Quick}); err != nil {
		t.Fatal(err)
	}
	r := Run(e, Request{Scale: Quick})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Rec.Text() != serial.String() {
		t.Errorf("Run capture differs from direct run:\n%q\nvs\n%q", r.Rec.Text(), serial.String())
	}
	if r.Elapsed <= 0 {
		t.Error("Run did not time the experiment")
	}
	if r.Experiment.ID != detTable || r.Req.Scale != Quick || r.Req.Platform != "" {
		t.Errorf("Run metadata wrong: %+v", r)
	}
	if len(r.Rec.Document().Sections) == 0 {
		t.Error("Run captured no structured sections")
	}
}

func TestRunRejectsIncompatiblePlatform(t *testing.T) {
	// Run validates the platform before executing, so a direct caller
	// cannot bypass the compatibility contract.
	f1, _ := Get("F1")
	r := Run(f1, Request{Scale: Quick, Platform: "smp-1n"})
	if r.Err == nil {
		t.Error("Run executed F1 on a single-node platform")
	}
	if r.Elapsed != 0 {
		t.Error("rejected run reported a nonzero elapsed time")
	}
	r = Run(f1, Request{Scale: Quick, Platform: "no-such"})
	if r.Err == nil {
		t.Error("Run executed on an unknown platform")
	}
}

func TestRunExplicitPlatform(t *testing.T) {
	// An explicit single platform restricts the output to that preset.
	r := cell(t, "T1", "gige-8n")
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	out := r.Rec.Text()
	if !strings.Contains(out, "gige-8n") {
		t.Errorf("explicit-platform T1 missing its platform: %s", out)
	}
	if strings.Contains(out, "ib-8n") || strings.Contains(out, "smp-1n") {
		t.Errorf("explicit-platform T1 leaked other presets: %s", out)
	}
	// And differs from the default canonical-set output.
	if runExp(t, "T1") == out {
		t.Error("explicit platform output identical to default set output")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	// Every modeled experiment is compared; the host-timed ones (T2,
	// F7, M1, M2, T3) differ run to run even serially. The serial side
	// is the memoised cell; the parallel side runs fresh.
	ids := goldenIDs()
	results, err := RunParallel(ids, Request{Scale: Quick}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.Experiment.ID != ids[i] {
			t.Errorf("result %d is %s, want %s (order not preserved)", i, r.Experiment.ID, ids[i])
		}
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.Experiment.ID, r.Err)
		}
		if r.Rec.Text() != runExp(t, r.Experiment.ID) {
			t.Errorf("%s parallel output differs from serial", r.Experiment.ID)
		}
	}
}

func TestRunParallelUnknownID(t *testing.T) {
	if _, err := RunParallel([]string{"T1", "Z9"}, Request{Scale: Quick}, 2); err == nil {
		t.Error("unknown ID did not fail")
	}
	if err := RunParallelFunc([]string{"Z9"}, Request{Scale: Quick}, 1, func(Result) {
		t.Error("fn called despite unknown ID")
	}); err == nil {
		t.Error("unknown ID did not fail")
	}
}

func TestRunParallelIncompatiblePlatform(t *testing.T) {
	// An explicit platform incompatible with any requested ID fails
	// the whole batch up front — nothing runs on a half-valid request.
	err := RunParallelFunc([]string{"T1", "F1"}, Request{Scale: Quick, Platform: "smp-1n"}, 2, func(Result) {
		t.Error("fn called despite incompatible platform")
	})
	if err == nil {
		t.Error("incompatible platform did not fail")
	}
	// The same IDs on a compatible platform run fine.
	results, err := RunParallel([]string{"T1", "F1"}, Request{Scale: Quick, Platform: "gige-8n"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s on gige-8n failed: %v", r.Experiment.ID, r.Err)
		}
		if r.Req.Platform != "gige-8n" {
			t.Errorf("%s result lost the platform: %+v", r.Experiment.ID, r.Req)
		}
	}
}

func TestRunParallelWorkerClamp(t *testing.T) {
	// Degenerate worker counts must still run everything.
	for _, workers := range []int{0, -3, 100} {
		results, err := RunParallel([]string{"T1"}, Request{Scale: Quick}, workers)
		if err != nil || len(results) != 1 || results[0].Err != nil {
			t.Errorf("workers=%d: results=%v err=%v", workers, results, err)
		}
	}
}

func TestRunEveryExperimentAtQuick(t *testing.T) {
	// Run over All() is the serial sweep: every experiment's run
	// succeeds and writes output of its own.
	for _, e := range All() {
		res := cell(t, e.ID, "")
		if res.Err != nil {
			t.Errorf("%s at quick scale failed: %v", e.ID, res.Err)
		}
		if len(res.Rec.Bytes()) == 0 {
			t.Errorf("%s at quick scale wrote no output", e.ID)
		}
	}
}

func TestRunExplicitPlatformRejectsIncompatible(t *testing.T) {
	// An all-registry sweep on one preset covers the compatible
	// experiments; the rest (host-only T2, the NUMA-needing M5/M6 on a
	// non-NUMA preset, ...) fail before anything runs.
	ran := map[string]bool{}
	for _, e := range All() {
		if e.CheckPlatform("ib-8n") != nil {
			res := Run(e, Request{Scale: Quick, Platform: "ib-8n"})
			if res.Err == nil || len(res.Rec.Bytes()) != 0 {
				t.Errorf("%s is incompatible with ib-8n but ran (err %v)", e.ID, res.Err)
			}
			continue
		}
		if res := cell(t, e.ID, "ib-8n"); res.Err != nil {
			t.Errorf("%s on ib-8n failed: %v", e.ID, res.Err)
		}
		ran[e.ID] = true
	}
	for _, id := range []string{"T1", "F1"} {
		if !ran[id] {
			t.Errorf("sweep on ib-8n missing compatible experiment %s", id)
		}
	}
	for _, id := range []string{"T2", "M5", "M6"} {
		if ran[id] {
			t.Errorf("sweep on ib-8n ran incompatible experiment %s", id)
		}
	}
}

func TestRunParallelFuncCompletionStream(t *testing.T) {
	var calls atomic.Int32
	var mu sync.Mutex
	seen := map[string]bool{}
	ids := []string{"T1", "T4", "M3"}
	err := RunParallelFunc(ids, Request{Scale: Quick}, 2, func(r Result) {
		calls.Add(1)
		mu.Lock()
		seen[r.Experiment.ID] = true
		mu.Unlock()
		if !strings.Contains(r.Rec.Text(), "==") {
			t.Errorf("%s output looks empty: %q", r.Experiment.ID, r.Rec.Text())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(ids) {
		t.Errorf("fn called %d times, want %d", calls.Load(), len(ids))
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("no result for %s", id)
		}
	}
}

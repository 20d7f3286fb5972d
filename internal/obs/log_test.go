package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
}

// TestLoggerJSON pins the JSON line shape: one object per line,
// time/level/msg first, fields in call order.
func TestLoggerJSON(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, FormatJSON)
	l.now = fixedClock
	l.Info("request", "method", "GET", "status", 200, "dur_ms", 1.5)
	line := b.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not one line: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("unparseable: %v in %q", err, line)
	}
	if m["level"] != "info" || m["msg"] != "request" || m["method"] != "GET" ||
		m["status"] != float64(200) || m["dur_ms"] != 1.5 {
		t.Errorf("fields wrong: %v", m)
	}
	if !strings.HasPrefix(line, `{"time":"2026-08-08T12:00:00Z","level":"info","msg":"request",`) {
		t.Errorf("field order not preserved: %q", line)
	}
}

// TestLoggerText pins the text shape: timestamp LEVEL msg k=v.
func TestLoggerText(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, FormatText)
	l.now = fixedClock
	l.Error("boom", "cause", "disk")
	if got, want := b.String(), "2026-08-08T12:00:00Z ERROR boom cause=disk\n"; got != want {
		t.Errorf("text line = %q, want %q", got, want)
	}
}

// TestLoggerJSONLineForcesJSON: the shutdown summary stays machine
// readable even on a text-format logger.
func TestLoggerJSONLineForcesJSON(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, FormatText)
	l.now = fixedClock
	l.JSONLine("info", "summary", "runs", 4)
	var m map[string]any
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("summary not JSON: %v in %q", err, b.String())
	}
	if m["runs"] != float64(4) {
		t.Errorf("summary fields wrong: %v", m)
	}
}

// TestLoggerNilSafe: a nil logger is a valid sink.
func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", "k", "v")
	l.Error("ignored")
	l.JSONLine("info", "ignored")
}

// TestTextFieldMatchesFmt pins the text format's field rendering to
// %v for the types that skip fmt and for those that fall back to it.
func TestTextFieldMatchesFmt(t *testing.T) {
	for _, v := range []any{
		"", "GET", "a b=c", 0, -7, 200, int64(0), int64(-1) << 62, int64(1) << 40,
		0.0, 1.5, 12.345, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1e21, 1e20, 1e-7, 1e-4, 123456789.0, math.MaxFloat64, math.SmallestNonzeroFloat64,
		true, false, 1500 * time.Microsecond, errors.New("disk full"), nil,
	} {
		if got, want := string(appendText(nil, v)), fmt.Sprintf("%v", v); got != want {
			t.Errorf("%T %v: rendered %q, want %q", v, v, got, want)
		}
	}
}

// TestAccessLineAllocs bounds what one access-log-shaped text line
// costs the logger: the line buffer and the upper-cased level.
func TestAccessLineAllocs(t *testing.T) {
	l := NewLogger(io.Discard, FormatText)
	kv := []any{
		"request_id", "4f1c2a9b8e7d6c5b", "method", "GET",
		"path", "/experiments/F1?platform=ib-8n", "status", 200,
		"bytes", int64(18734), "elapsed_ms", 0.412, "remote", "127.0.0.1:53122",
	}
	if n := testing.AllocsPerRun(100, func() { l.Info("routed", kv...) }); n > 2 {
		t.Errorf("access line: %v allocs, want at most 2", n)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Logger writes line-oriented structured logs in one of two formats:
//
//	text: 2026-01-02T15:04:05.000Z INFO msg key=value key=value
//	json: {"time":"...","level":"info","msg":"...","key":value,...}
//
// Fields are ordered key/value pairs and keep their call-site order in
// both formats (JSON is built by hand, not through a map, so lines are
// deterministic and greppable). A nil *Logger is a valid no-op sink —
// instrumentation points never need to guard against an unconfigured
// logger. Safe for concurrent use; each call emits exactly one line.
type Logger struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
	now  func() time.Time
}

// Log formats: the accepted values for NewLogger.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// NewLogger returns a Logger writing to w in the given format
// (FormatText or FormatJSON; anything else falls back to text).
func NewLogger(w io.Writer, format string) *Logger {
	return &Logger{w: w, json: format == FormatJSON, now: time.Now}
}

// Info emits one line at level info. kv is alternating key, value
// pairs; a trailing odd key gets a null/empty value.
func (l *Logger) Info(msg string, kv ...any) { l.emit("info", msg, false, kv) }

// Error emits one line at level error.
func (l *Logger) Error(msg string, kv ...any) { l.emit("error", msg, false, kv) }

// JSONLine emits one line at the given level in JSON regardless of the
// logger's configured format — for machine-consumed records (the
// daemon's shutdown summary) that must stay parseable even when the
// operator prefers text logs.
func (l *Logger) JSONLine(level, msg string, kv ...any) { l.emit(level, msg, true, kv) }

func (l *Logger) emit(level, msg string, forceJSON bool, kv []any) {
	if l == nil || l.w == nil {
		return
	}
	t := l.now().UTC()
	var line []byte
	if l.json || forceJSON {
		var b bytes.Buffer
		b.WriteString(`{"time":`)
		b.Write(jsonValue(t.Format(time.RFC3339Nano)))
		b.WriteString(`,"level":`)
		b.Write(jsonValue(level))
		b.WriteString(`,"msg":`)
		b.Write(jsonValue(msg))
		for i := 0; i < len(kv); i += 2 {
			key := fmt.Sprintf("%v", kv[i])
			var val any
			if i+1 < len(kv) {
				val = kv[i+1]
			}
			b.WriteByte(',')
			b.Write(jsonValue(key))
			b.WriteByte(':')
			b.Write(jsonValue(val))
		}
		b.WriteString("}\n")
		line = b.Bytes()
	} else {
		// The access log's format: one buffer, no fmt on the common
		// field types.
		line = make([]byte, 0, 256)
		line = t.AppendFormat(line, time.RFC3339Nano)
		line = append(line, ' ')
		line = append(line, strings.ToUpper(level)...)
		line = append(line, ' ')
		line = append(line, msg...)
		for i := 0; i < len(kv); i += 2 {
			var val any
			if i+1 < len(kv) {
				val = kv[i+1]
			}
			line = append(line, ' ')
			line = appendText(line, kv[i])
			line = append(line, '=')
			line = appendText(line, val)
		}
		line = append(line, '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(line)
}

// appendText appends v's %v rendering to b, through strconv for the
// types access-log fields carry.
func appendText(b []byte, v any) []byte {
	switch v := v.(type) {
	case string:
		return append(b, v...)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	default:
		return fmt.Appendf(b, "%v", v)
	}
}

// jsonValue marshals one field value, degrading to its %v rendering if
// the value does not marshal (a logger must never fail a log line).
func jsonValue(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return b
}

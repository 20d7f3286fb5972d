package report

import (
	"strings"
	"testing"
)

func TestTableFprintAligned(t *testing.T) {
	tb := NewTable("Demo", "name", "value", "unit")
	tb.AddRow("latency", 1.2345678, "us")
	tb.AddRow("bw", 118.0, "MB/s")
	var b strings.Builder
	if err := tb.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "latency") {
		t.Error("missing content")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines: %q", len(lines), out)
	}
	if tb.NRows() != 2 {
		t.Errorf("NRows = %d", tb.NRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", 2.0)
	tb.AddRow(`has"quote`, "with,comma")
	rec := NewRecorder()
	if err := tb.Fprint(rec); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.Document().CSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# x (table)\na,b\n") {
		t.Errorf("header wrong: %q", out)
	}
	if !strings.Contains(out, `"has""quote"`) {
		t.Errorf("quote escaping wrong: %q", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma escaping wrong: %q", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5000",
		123.456: "123.5",
		1e9:     "1.000e+09",
		2.5e-7:  "2.500e-07",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFigure(t *testing.T) {
	f := NewFigure("Latency", "bytes", "seconds")
	s1 := f.AddSeries("intra")
	s1.Add(8, 1e-6)
	s1.Add(64, 2e-6)
	s2 := f.AddSeries("inter")
	s2.Add(8, 4e-5)
	var b strings.Builder
	if err := f.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== Latency ==") || !strings.Contains(out, "# series, bytes, seconds") {
		t.Errorf("header wrong: %q", out)
	}
	if strings.Count(out, "intra,") != 2 || strings.Count(out, "inter,") != 1 {
		t.Errorf("points wrong: %q", out)
	}
	if len(f.Series) != 2 {
		t.Errorf("series count %d", len(f.Series))
	}
}

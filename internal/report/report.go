// Package report renders the characterization's tables and figure data:
// aligned plain-text tables for the terminal (the "paper table" format)
// and CSV series for the figures, one row per point, ready for any
// plotting tool.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, float64 compactly.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return formatFloat(v)
	case float32:
		return formatFloat(float64(v))
	case string:
		return v
	default:
		return fmt.Sprintf("%v", c)
	}
}

// formatFloat renders measurement values compactly: 4 significant
// digits, scientific only when far from unit scale.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return strconv.FormatFloat(v, 'e', 3, 64)
	case av >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
}

// NRows returns the number of data rows added.
func (t *Table) NRows() int { return len(t.rows) }

// Bytes renders a byte count in the largest exact binary unit
// ("4KiB", "6MiB", "1GiB"), falling back to a plain byte count — the
// format capacity columns read naturally in.
func Bytes(b int) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return strconv.Itoa(b>>30) + "GiB"
	case b >= 1<<20 && b%(1<<20) == 0:
		return strconv.Itoa(b>>20) + "MiB"
	case b >= 1<<10 && b%(1<<10) == 0:
		return strconv.Itoa(b>>10) + "KiB"
	default:
		return strconv.Itoa(b) + "B"
	}
}

// Fprint writes the aligned table. If w also implements
// SectionWriter (see Recorder), the table's structured rows are
// handed to it as well, so one rendering pass captures both forms.
func (t *Table) Fprint(w io.Writer) error {
	if sw, ok := w.(SectionWriter); ok {
		sw.WriteSection(t.section())
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Series is one curve of a figure: named (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, attaches and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Fprint writes the figure as a long-format data listing: one row per
// point with the series name, which is both human-readable and directly
// loadable for plotting. If w also implements SectionWriter (see
// Recorder), the flattened points are handed to it as well.
func (f *Figure) Fprint(w io.Writer) error {
	if sw, ok := w.(SectionWriter); ok {
		sw.WriteSection(f.section())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	fmt.Fprintf(&b, "# series, %s, %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s, %s, %s\n", s.Name, formatFloat(s.X[i]), formatFloat(s.Y[i]))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

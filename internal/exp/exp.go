// Package exp contains one experiment per table and figure in the
// paper's evaluation, plus the supporting studies its text argues from.
// Every experiment is a pure function of its config (seeded), returns a
// structured result, and can render itself in the same rows/series the
// paper reports. cmd/abwsim exposes them on the command line;
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"io"
	"strings"

	"abw/internal/scenario"
	"abw/internal/unit"
)

// The paper's shared single-hop setting: a C = 50 Mbps tight link
// carrying 25 Mbps of cross traffic (A = 25 Mbps), probed with 1500 B
// packets; direct probing sends at Ri = 40 Mbps, above A. Every
// experiment runs at its paper's parameters, held as constants beside
// it; a config holds only the seed and the sizes -quick shrinks.
const (
	paperCapacity  = 50 * unit.Mbps
	paperCrossRate = 25 * unit.Mbps
	paperPktSize   = unit.Bytes(1500)
	directRate     = 40 * unit.Mbps
)

// paperHop is the paper's single hop: the C = 50 Mbps tight link
// carrying src.
func paperHop(src scenario.Source) []scenario.Hop {
	return []scenario.Hop{{Capacity: paperCapacity, Traffic: []scenario.Source{src}}}
}

// Table is a rendered experiment result: a titled grid with notes.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Markdown writes the table as a GitHub-flavored markdown table under a
// heading — the building block of the generated EXPERIMENTS.md.
func (t *Table) Markdown(w io.Writer) {
	esc := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = strings.ReplaceAll(c, "|", `\|`)
		}
		return out
	}
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(esc(t.Header), " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		cells := make([]string, len(t.Header))
		for i := range cells {
			if i < len(row) {
				cells[i] = row[i]
			}
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(esc(cells), " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// PaperClaim returns the note carrying the paper's reported values —
// the "paper" side of EXPERIMENTS.md's paper-vs-measured rows. Tables
// prefix that note with "paper:"; the first note is the fallback.
func (t *Table) PaperClaim() string {
	for _, n := range t.Notes {
		if strings.HasPrefix(n, "paper:") {
			return strings.TrimSpace(strings.TrimPrefix(n, "paper:"))
		}
	}
	if len(t.Notes) > 0 {
		return t.Notes[0]
	}
	return ""
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f formats a float with sensible precision for table cells.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

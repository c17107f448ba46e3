// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section 6), each regenerating the corresponding
// rows or series on the simulated cluster, plus ablations for the design
// choices DESIGN.md calls out. `cmd/ps2bench` runs them from the command
// line, and `scripts/bench_snapshot.sh` records them in BENCH_BASELINE.json.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// Opts controls experiment scale. Quick shrinks datasets and iteration
// counts so a full sweep finishes in CI time; the default (full) scale is
// what EXPERIMENTS.md records. Trace arms the span tracer on experiments
// that support it; their Results then carry Spans for Chrome-trace export
// and a per-run phase summary.
type Opts struct {
	Quick bool
	Trace bool
}

// Result is the rendered outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Traces []*core.Trace
	Notes  []string

	// Spans holds one named tracer per traced engine run (only when
	// Opts.Trace was set); cmd/ps2bench merges them into one Chrome trace.
	// Phases carries the matching compute/comm/wait/recovery summaries.
	Spans  []obs.NamedTrace
	Phases []string
}

// SnapshotEntry is one experiment's record in BENCH_BASELINE.json: the
// result table alone, without host time, curves or spans, so a rerun on
// unchanged code is byte-identical.
type SnapshotEntry struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Snapshot is the whole BENCH_BASELINE.json document.
type Snapshot struct {
	Quick   bool            `json:"quick"`
	Results []SnapshotEntry `json:"results"`
}

// Entry returns the result's snapshot record.
func (r *Result) Entry() SnapshotEntry {
	return SnapshotEntry{ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows, Notes: r.Notes}
}

// attachTrace records a traced engine run's spans and phase summary under
// name, when the harness was run with -trace.
func (r *Result) attachTrace(o Opts, name string, e *core.Engine) {
	if !o.Trace {
		return
	}
	rep := e.Snapshot()
	r.Spans = append(r.Spans, obs.NamedTrace{Name: name, Tracer: e.Tracer()})
	r.Phases = append(r.Phases, name+": "+rep.Phases.Summary(rep.WallSec))
}

// AddRow appends one table row, stringifying the cells.
func (r *Result) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Note appends a free-form annotation printed under the table.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Render prints the result as an aligned text table with notes and
// downsampled convergence curves.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		printRow := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				parts[i] = pad(c, widths[i])
			}
			fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
		}
		printRow(r.Header)
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		printRow(sep)
		for _, row := range r.Rows {
			printRow(row)
		}
	}
	for _, t := range r.Traces {
		d := t.Downsample(8)
		fmt.Fprintf(w, "  curve %-14s:", t.Name)
		for i := 0; i < d.Len(); i++ {
			fmt.Fprintf(w, " (%.1fs, %.4f)", d.Times[i], d.Values[i])
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phases: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered table/figure runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Opts) *Result
}

var registry []Experiment

func register(id, title string, run func(o Opts) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in stable order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtSpeed renders a speedup factor.
func fmtSpeed(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", x)
}

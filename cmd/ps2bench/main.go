// Command ps2bench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	ps2bench -list
//	ps2bench -exp fig9a [-quick]
//	ps2bench -all [-quick]
//	ps2bench -exp ext-fusion -quick -trace out.json   # Perfetto-loadable trace
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		expID     = flag.String("exp", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiment ids")
		quick     = flag.Bool("quick", false, "reduced scale for a fast pass")
		csvDir    = flag.String("csv", "", "also write each result as CSV into this directory")
		jsonFile  = flag.String("json", "", "write the result tables as one JSON document to this file (host-time free, so reruns diff cleanly)")
		traceFile = flag.String("trace", "", "arm the span tracer and write a Chrome/Perfetto trace to this file (plus a .phases.txt sidecar)")
	)
	flag.Parse()
	opts := bench.Opts{Quick: *quick, Trace: *traceFile != ""}

	var results []*bench.Result
	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	case *all:
		for _, e := range bench.All() {
			results = append(results, runOne(e, opts, *csvDir))
		}
	case *expID != "":
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ps2bench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		results = append(results, runOne(e, opts, *csvDir))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, results); err != nil {
			fmt.Fprintf(os.Stderr, "ps2bench: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, opts, results); err != nil {
			fmt.Fprintf(os.Stderr, "ps2bench: json: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON snapshots the result tables as one JSON document. Every
// experiment observes virtual time only, and the host time runOne prints is
// left out, so a rerun on the same code produces a byte-identical file and
// `git diff` shows real regressions.
func writeJSON(path string, o bench.Opts, results []*bench.Result) error {
	doc := bench.Snapshot{Quick: o.Quick}
	for _, res := range results {
		doc.Results = append(doc.Results, res.Entry())
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(doc.Results))
	return nil
}

func runOne(e bench.Experiment, o bench.Opts, csvDir string) *bench.Result {
	start := time.Now()
	res := e.Run(o)
	res.Render(os.Stdout)
	fmt.Printf("  [host time: %.1fs]\n\n", time.Since(start).Seconds())
	if csvDir != "" {
		if err := writeCSV(csvDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "ps2bench: csv: %v\n", err)
			os.Exit(1)
		}
	}
	return res
}

// writeTrace merges every traced engine run into one Chrome-trace-format file
// (load it in Perfetto or chrome://tracing; one process per simulated node)
// and writes the per-run phase summaries alongside it.
func writeTrace(path string, results []*bench.Result) error {
	var spans []obs.NamedTrace
	var phases []string
	for _, res := range results {
		spans = append(spans, res.Spans...)
		for _, p := range res.Phases {
			phases = append(phases, res.ID+" "+p)
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("no traced runs: the selected experiments do not support -trace yet")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTraces(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sidecar := path + ".phases.txt"
	if err := os.WriteFile(sidecar, []byte(strings.Join(phases, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d traced runs) and %s\n", path, len(spans), sidecar)
	return nil
}

// writeCSV writes the result table (and any convergence curves) as CSV files.
func writeCSV(dir string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(res.Header); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, tr := range res.Traces {
		cf, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_curve_%s.csv", res.ID, sanitize(tr.Name))))
		if err != nil {
			return err
		}
		cw := csv.NewWriter(cf)
		if err := cw.Write([]string{"time_s", "value"}); err != nil {
			return err
		}
		for i := 0; i < tr.Len(); i++ {
			if err := cw.Write([]string{
				strconv.FormatFloat(tr.Times[i], 'g', -1, 64),
				strconv.FormatFloat(tr.Values[i], 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sanitize maps a trace name to a safe file fragment.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

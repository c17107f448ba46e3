// ps2perf is the repo's wall-clock benchmark: four named workloads over the
// two products the repo has — the TCP parameter server (ps2serve and
// ps2worker over internal/wire) and the simulated cluster behind the public
// ps2 package — with end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced run. benchmarks/README.md says
// what each workload and metric is for; BENCHMARK.json at the repo root fixes
// their names, units and bounds, and this program reads them from there.
//
//	bash benchmarks/run.sh                        # every workload, untraced and traced, as a table
//	bash benchmarks/run.sh -workload sim-lr-adam  # one workload
//	bash benchmarks/run.sh -json out.json         # the table as JSON as well
//	bash benchmarks/run.sh -selfcheck             # two sets back to back must agree within the bounds
//	bash benchmarks/run.sh -smoke                 # every code path at ~1 % size
//
// With -trace 0 or -trace 1 it makes the single run the benchmark driver
// asks for and prints the result as one JSON object on the last line:
//
//	bash benchmarks/run.sh --workload tcp-lr-sparse --seed 3 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func (e *env) tracePath(workload string) string {
	return filepath.Join(e.out, "trace-"+workload+".json")
}

// runOne makes one run of one workload. The TCP workloads need the two CLIs
// built; the simulated one builds nothing and opens no socket.
func (e *env) runOne(name string, seed uint64, seconds float64, trace bool) (*result, error) {
	var fn func(name string, seed uint64, seconds float64, trace bool) (*result, error)
	switch name {
	case "tcp-lr-sparse", "tcp-lr-dense":
		fn = e.runTCPLR
	case "tcp-serve-mixed":
		fn = e.runServe
	case "sim-lr-adam":
		fn = e.runSimLR
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if strings.HasPrefix(name, "tcp-") && e.build == 0 {
		if err := e.buildCLIs(); err != nil {
			return nil, err
		}
	}
	if trace {
		if err := os.MkdirAll(e.out, 0o755); err != nil {
			return nil, err
		}
	}
	return fn(name, seed, seconds, trace)
}

// fingerprint says where and on what a set of numbers was measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func takeFingerprint(root string, seed uint64, smoke bool) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", Commit: "unknown", Seed: seed, Smoke: smoke,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s seed=%d",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Kernel, fp.Commit, fp.Seed)
}

// stat is one metric of a report: its median over the repetitions of the
// run, and their range.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// workloadReport is one workload's untraced and traced run.
type workloadReport struct {
	Correct  bool            `json:"correct"`
	EndToEnd map[string]stat `json:"end_to_end"`
	PerLayer map[string]stat `json:"per_layer"`
	Notes    []string        `json:"notes,omitempty"`
}

// report is a full set of numbers; benchmarks/BASELINE.json is one.
type report struct {
	Fingerprint fingerprint               `json:"fingerprint"`
	Workloads   map[string]workloadReport `json:"workloads"`
}

func statsOf(r *result, specs []metricSpec) map[string]stat {
	out := make(map[string]stat, len(specs))
	for _, m := range specs {
		v, ok := r.Values[m.Name]
		if !ok {
			continue
		}
		st := stat{Median: v, Min: v, Max: v, N: 1, Unit: m.Unit}
		if xs := r.Samples[m.Name]; len(xs) > 0 {
			st.Min, st.Max = slices.Min(xs), slices.Max(xs)
			st.N = len(xs)
		}
		out[m.Name] = st
	}
	return out
}

// exactMetrics are counts and deterministic values: two runs on the same
// inputs must agree on them exactly (final_loss to lossTol), whatever the
// machine.
var exactMetrics = []string{"wire_kb_per_iter", "rpcs_per_iter", "lr.final_loss", "sim.virtual_ms_per_iter", "sim.events_per_iter"}

func sameExact(name string, a, b float64) bool {
	if name == "lr.final_loss" {
		return math.Abs(a-b) <= lossTol
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareExact returns one line for every exact metric on which got differs
// from want.
func compareExact(workload string, got, want workloadReport) []string {
	var diffs []string
	for _, name := range exactMetrics {
		for _, pair := range [][2]map[string]stat{{got.EndToEnd, want.EndToEnd}, {got.PerLayer, want.PerLayer}} {
			g, okG := pair[0][name]
			w, okW := pair[1][name]
			if okG && okW && !sameExact(name, g.Median, w.Median) {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v, expected %v", workload, name, g.Median, w.Median))
			}
		}
	}
	return diffs
}

// runSet runs the named workloads, untraced and (unless skipTraced) traced,
// and prints each as it finishes.
func (e *env) runSet(w io.Writer, spec *benchSpec, names []string, seed uint64, seconds float64, skipTraced bool) (report, bool) {
	rep := report{Fingerprint: takeFingerprint(e.root, seed, e.smoke), Workloads: map[string]workloadReport{}}
	ok := true
	fmt.Fprintf(w, "ps2perf %s\n", rep.Fingerprint)
	for _, ws := range spec.Workloads {
		if !slices.Contains(names, ws.Name) {
			continue
		}
		fmt.Fprintf(w, "\n== %s — %s\n", ws.Name, ws.Why)
		wr := workloadReport{Correct: true}
		for _, traced := range []bool{false, true} {
			if traced && skipTraced {
				continue
			}
			r, err := e.runOne(ws.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(w, "  ERROR: %v\n", err)
				wr.Correct, ok = false, false
				continue
			}
			wr.Correct = wr.Correct && r.Correct
			wr.Notes = append(wr.Notes, r.Notes...)
			if traced {
				wr.PerLayer = statsOf(r, spec.PerLayer)
				fmt.Fprintf(w, "  per-layer (traced run, spans in %s)\n", e.tracePath(ws.Name))
				printStats(w, wr.PerLayer, spec.PerLayer)
			} else {
				wr.EndToEnd = statsOf(r, spec.EndToEnd)
				fmt.Fprintf(w, "  end-to-end (tracing off, %d of %d operations failed)\n", r.Failed, r.Attempted)
				printStats(w, wr.EndToEnd, spec.EndToEnd)
			}
		}
		for _, n := range wr.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
		ok = ok && wr.Correct
		rep.Workloads[ws.Name] = wr
	}
	return rep, ok
}

// printStats prints the measured metrics in BENCHMARK.json's order. A metric
// whose own range is wider than its bound cannot resolve a change of the
// size of the bound and is marked so.
func printStats(w io.Writer, stats map[string]stat, specs []metricSpec) {
	for _, m := range specs {
		st, ok := stats[m.Name]
		if !ok {
			continue // a per-layer metric that does not exist on this workload
		}
		line := fmt.Sprintf("    %-38s %14.6g %-6s", m.Name, st.Median, st.Unit)
		if st.N > 1 {
			line += fmt.Sprintf(" min %-12.6g max %-12.6g n %d", st.Min, st.Max, st.N)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf("  bound %g%%", 100*m.Bound)
			if st.Median != 0 && (st.Max-st.Min)/math.Abs(st.Median) > m.Bound {
				line += "  UNRESOLVED"
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// selfcheck compares two sets measured back to back on the same build: every
// end-to-end median must agree within its bound and every exact metric
// exactly. It is the acceptance test of the benchmark itself.
func selfcheck(w io.Writer, spec *benchSpec, a, b report) bool {
	ok := true
	fmt.Fprintf(w, "\n== selfcheck: second set against the first\n")
	for _, ws := range spec.Workloads {
		ra, rb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB || sa.Median == 0 {
				continue
			}
			change := (sb.Median - sa.Median) / math.Abs(sa.Median)
			verdict := "ok"
			if math.Abs(change) > m.Bound {
				verdict, ok = "DISAGREES", false
			}
			fmt.Fprintf(w, "  %-16s %-18s %12.6g → %-12.6g %+7.2f%% (bound %g%%) %s\n",
				ws.Name, m.Name, sa.Median, sb.Median, 100*change, 100*m.Bound, verdict)
		}
		for _, d := range compareExact(ws.Name, rb, ra) {
			fmt.Fprintf(w, "  NOT EXACT: %s\n", d)
			ok = false
		}
	}
	return ok
}

// checkBaseline compares the exact metrics of rep with benchmarks/BASELINE.json
// when that was recorded at the same seed and size: the counts and the loss
// do not depend on the machine.
func (e *env) checkBaseline(w io.Writer, rep report) bool {
	raw, err := os.ReadFile(filepath.Join(e.root, "benchmarks", "BASELINE.json"))
	if err != nil {
		return true
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(w, "benchmarks/BASELINE.json: %v\n", err)
		return false
	}
	if base.Fingerprint.Seed != rep.Fingerprint.Seed || base.Fingerprint.Smoke != rep.Fingerprint.Smoke {
		return true
	}
	ok := true
	for name, wr := range rep.Workloads {
		for _, d := range compareExact(name, wr, base.Workloads[name]) {
			fmt.Fprintf(w, "DIFFERS FROM benchmarks/BASELINE.json: %s\n", d)
			ok = false
		}
	}
	return ok
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ps2perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all)")
		seed     = fs.Uint64("seed", 17, "workload seed: the inputs are generated from it")
		seconds  = fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", -1, "0 or 1: make the single untraced or traced run the driver asks for and print its JSON line")
		jsonPath = fs.String("json", "", "also write the report to this file as JSON")
		check    = fs.Bool("selfcheck", false, "run the whole benchmark twice and fail unless the two sets agree within the bounds")
		smoke    = fs.Bool("smoke", false, "run every workload, untraced and traced, at ~1 % size")
		binDir   = fs.String("bin", "", "where to build ps2serve and ps2worker (default: .bench_build/bin in the repo)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ps2perf: %v\n", err)
		return 1
	}
	// The load generator is one process on at most two cores, whatever the
	// machine, and never holds more connections than that.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	e := &env{root: root, bin: *binDir, out: filepath.Join(root, "benchmarks", "out"), smoke: *smoke}
	if e.bin == "" {
		e.bin = filepath.Join(root, ".bench_build", "bin")
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		*seconds = 0.2
	}

	if *trace == 0 || *trace == 1 {
		r, err := e.runOne(*workload, *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(err)
		}
		for _, n := range r.Notes {
			fmt.Fprintln(stderr, n)
		}
		specs, mustExist := spec.EndToEnd, true
		if *trace == 1 {
			specs, mustExist = spec.PerLayer, false
		}
		line, err := r.driverLine(specs, mustExist)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	var names []string
	for _, ws := range spec.Workloads {
		if *workload == "" || *workload == ws.Name {
			names = append(names, ws.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	rep, ok := e.runSet(stdout, spec, names, *seed, *seconds, false)
	ok = e.checkBaseline(stdout, rep) && ok
	if *check {
		second, ok2 := e.runSet(stdout, spec, names, *seed, *seconds, true)
		ok = ok && ok2 && selfcheck(stdout, spec, rep, second)
	}
	if *jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "\nps2perf: FAILED (see the lines marked ERROR, FAILED, DISAGREES or DIFFERS above)")
		return 1
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

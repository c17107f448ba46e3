package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick runs every registered experiment exactly once at
// quick scale, each in its own parallel subtest, checks the output renders,
// applies that experiment's shapeChecks entry to the same Result, and
// compares its table with the committed BENCH_BASELINE.json.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still takes tens of seconds")
	}
	snap := committedSnapshot(t)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(Opts{Quick: true})
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			var buf bytes.Buffer
			res.Render(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatalf("render missing id:\n%s", buf.String())
			}
			if len(res.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if check, ok := shapeChecks[e.ID]; ok {
				t.Run("shape", func(t *testing.T) { check(t, res) })
			}
			t.Run("snapshot", func(t *testing.T) {
				// Marshalling string fields cannot fail.
				got, _ := json.Marshal(res.Entry())
				want, _ := json.Marshal(snap[e.ID])
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from %s; if the change is intended, run scripts/bench_snapshot.sh\n%s\ngot  %s\nwant %s",
						e.ID, snapshotPath, strings.Join(snapshotDiff(snap[e.ID], res.Entry()), "\n"), got, want)
				}
			})
		})
	}
}

// snapshotDiff lists each field in which got differs from want, one a line
// as "name: want → got": the title, the header and notes by position, and
// each table cell as "row/column", the row named by its index and first cell
// and the column by its header.
func snapshotDiff(want, got SnapshotEntry) []string {
	var out []string
	diff := func(name, w, g string) {
		if w != g {
			out = append(out, fmt.Sprintf("  %s: %s → %s", name, w, g))
		}
	}
	diffList := func(name string, w, g []string) {
		for i := range max(len(w), len(g)) {
			diff(fmt.Sprintf("%s %d", name, i), at(w, i), at(g, i))
		}
	}
	diff("title", want.Title, got.Title)
	diffList("header", want.Header, got.Header)
	for r := range max(len(want.Rows), len(got.Rows)) {
		var w, g []string
		if r < len(want.Rows) {
			w = want.Rows[r]
		}
		if r < len(got.Rows) {
			g = got.Rows[r]
		}
		row := fmt.Sprintf("row %d (%s)", r, at(g, 0))
		for c := range max(len(w), len(g)) {
			diff(row+"/"+at(got.Header, c), at(w, c), at(g, c))
		}
	}
	diffList("note", want.Notes, got.Notes)
	return out
}

// at returns xs[i], or "(none)" past its end.
func at(xs []string, i int) string {
	if i < len(xs) {
		return xs[i]
	}
	return "(none)"
}

// snapshotPath is the quick-scale snapshot scripts/bench_snapshot.sh writes.
const snapshotPath = "../../BENCH_BASELINE.json"

// committedSnapshot reads the committed snapshot, keyed by experiment id.
func committedSnapshot(t *testing.T) map[string]SnapshotEntry {
	t.Helper()
	buf, err := os.ReadFile(snapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("%s: %v", snapshotPath, err)
	}
	if !doc.Quick {
		t.Fatalf("%s is not a quick-scale snapshot", snapshotPath)
	}
	byID := make(map[string]SnapshotEntry, len(doc.Results))
	for _, r := range doc.Results {
		if _, dup := byID[r.ID]; dup {
			t.Fatalf("%s lists %q twice", snapshotPath, r.ID)
		}
		byID[r.ID] = r
	}
	return byID
}

// TestShapeChecksNameExperiments keeps shapeChecks keyed by registered ids,
// so renaming an experiment cannot silently drop its paper check.
func TestShapeChecksNameExperiments(t *testing.T) {
	for id := range shapeChecks {
		if _, ok := ByID(id); !ok {
			t.Errorf("shapeChecks[%q] names no registered experiment", id)
		}
	}
}

// shapeChecks pins each experiment's acceptance bars against the Result that
// TestAllExperimentsRunQuick produced, keyed by experiment id.
var shapeChecks = map[string]func(*testing.T, *Result){
	"fig9a": func(t *testing.T, res *Result) {
		// Rows: Spark-Adam, PS-Adam, PS2-Adam. PS2 must win, Spark must lose.
		spark := parseSpeed(t, res.Rows[0][3])
		pullpush := parseSpeed(t, res.Rows[1][3])
		if !(spark > pullpush && pullpush > 1.0) {
			t.Fatalf("ordering violated: Spark=%vx PS=%vx", spark, pullpush)
		}
	},

	"fig1a": func(t *testing.T, res *Result) {
		// Per-iteration time must grow monotonically with dimension.
		var prev float64 = -1
		for _, row := range res.Rows {
			v := parseNum(t, row[1])
			if v < prev {
				t.Fatalf("MLlib time not monotone in dimension: %v after %v", v, prev)
			}
			prev = v
		}
		last := parseSpeed(t, res.Rows[len(res.Rows)-1][2])
		if last < 10 {
			t.Fatalf("MLlib degradation only %vx over the sweep; paper shape is orders of magnitude", last)
		}
	},

	"fig1b": func(t *testing.T, res *Result) {
		// Rows: #features, broadcast%, gradient%, aggregate%, update%. The
		// shares tile each iteration, and at the largest model the driver's
		// two transfers outweigh the executors' compute and the update.
		var sh [4]float64
		for _, row := range res.Rows {
			var sum float64
			for k := range sh {
				sh[k] = parseNum(t, row[1+k])
				sum += sh[k]
			}
			if math.Abs(sum-100) > 0.2 {
				t.Fatalf("%s features: shares sum to %v%%, want 100", row[0], sum)
			}
		}
		if sh[0]+sh[2] <= sh[1]+sh[3] {
			t.Fatalf("largest model: broadcast+aggregate %v%% not above gradient+update %v%%", sh[0]+sh[2], sh[1]+sh[3])
		}
	},

	"fig13b": func(t *testing.T, res *Result) {
		last := res.Rows[len(res.Rows)-1]
		if mllib, ps2 := parseSpeed(t, last[3]), parseSpeed(t, last[4]); mllib <= ps2 {
			t.Fatalf("largest model: MLlib grew %vx, PS2 %vx; MLlib must degrade faster", mllib, ps2)
		}
	},

	"fig13c": func(t *testing.T, res *Result) {
		t0 := parseNum(t, res.Rows[0][1])
		t10 := parseNum(t, res.Rows[2][1])
		if t10 <= t0 {
			t.Fatalf("10%% failures (%vs) not slower than clean (%vs)", t10, t0)
		}
		// All runs converge to (numerically) the same loss.
		l0 := parseNum(t, res.Rows[0][2])
		l10 := parseNum(t, res.Rows[2][2])
		if math.Abs(l0-l10) > 1e-6*(1+math.Abs(l0)) {
			t.Fatalf("failure injection changed the solution: %v vs %v", l0, l10)
		}
	},

	"table3": func(t *testing.T, res *Result) {
		if len(res.Rows) != 6 {
			t.Fatalf("table3 rows = %d, want 6", len(res.Rows))
		}
		var ps2Row []string
		for _, row := range res.Rows {
			if row[0] == "PS2" {
				ps2Row = row
			}
		}
		for i := 1; i < 5; i++ {
			if ps2Row[i] != "yes" {
				t.Fatalf("PS2 row = %v, want full support", ps2Row)
			}
		}
	},

	// The cache experiment's acceptance bars: staleness 0 is bit-identical to
	// the uncached run, and the staleness-2 arm pulls at least 30% fewer bytes
	// and finishes sooner.
	"ext-cache": func(t *testing.T, res *Result) {
		rows := map[string][]string{}
		for _, row := range res.Rows {
			if row[0] == "LR-SGD" {
				rows[row[1]] = row
			}
		}
		uncached, exact, stale := rows["uncached"], rows["cache s=0 (exact)"], rows["cache s=2"]
		if uncached == nil || exact == nil || stale == nil {
			t.Fatalf("missing LR arms in %v", res.Rows)
		}
		if exact[8] != uncached[8] {
			t.Fatalf("staleness-0 loss %q != uncached %q (must be bit-identical)", exact[8], uncached[8])
		}
		pulled, baseline := parseNum(t, stale[3]), parseNum(t, stale[4])
		if pulled > 0.7*baseline {
			t.Fatalf("staleness-2 pulled %v MB of %v MB; want >= 30%% reduction", pulled, baseline)
		}
		if ct, ut := parseNum(t, stale[7]), parseNum(t, uncached[7]); ct >= ut {
			t.Fatalf("staleness-2 run took %vs vs uncached %vs; not faster", ct, ut)
		}
	},

	// The policy ablation's acceptance bar: the value-bounded b=1 arm pulls at
	// least 25% fewer bytes than clock s=2 while staying within 5% of its
	// final loss.
	"ext-consistency": func(t *testing.T, res *Result) {
		rows := map[string][]string{}
		for _, row := range res.Rows {
			rows[row[0]] = row
		}
		clock, value := rows["clock s=2"], rows["value b=1"]
		if clock == nil || value == nil {
			t.Fatalf("missing arms in %v", res.Rows)
		}
		vPulled, cPulled := parseNum(t, value[4]), parseNum(t, clock[4])
		if vPulled > 0.75*cPulled {
			t.Fatalf("value b=1 pulled %v MB vs clock s=2 %v MB; want >= 25%% reduction", vPulled, cPulled)
		}
		vLoss, cLoss := parseNum(t, value[9]), parseNum(t, clock[9])
		if gap := (vLoss - cLoss) / cLoss; gap > 0.05 || gap < -0.05 {
			t.Fatalf("value b=1 loss %v vs clock s=2 %v: gap beyond 5%%", vLoss, cLoss)
		}
	},

	"ext-fusion": func(t *testing.T, res *Result) {
		// Rows come in unfused/fused pairs per workload.
		for i := 0; i+1 < len(res.Rows); i += 2 {
			unfused, fused := res.Rows[i], res.Rows[i+1]
			if unfused[0] != fused[0] || unfused[1] != "unfused" || fused[1] != "fused" {
				t.Fatalf("row pairing broken: %v / %v", unfused, fused)
			}
			ru, rf := parseNum(t, unfused[2]), parseNum(t, fused[2])
			if rf >= ru {
				t.Fatalf("%s: fused RPCs %v not below unfused %v", fused[0], rf, ru)
			}
			if fu := parseNum(t, fused[3]); fu == 0 {
				t.Fatalf("%s: fused run reported no fused ops", fused[0])
			}
			tu, tf := parseNum(t, unfused[5]), parseNum(t, fused[5])
			if tf >= tu {
				t.Fatalf("%s: fused time %v not below unfused %v", fused[0], tf, tu)
			}
			// The LR family replays the exact op sequence per server, so the
			// loss must agree to the rendered digit; DeepWalk's pipeline
			// reorders across pairs and only tracks approximately.
			if strings.HasPrefix(unfused[0], "LR") && unfused[6] != fused[6] {
				t.Fatalf("%s: fused loss %q != unfused %q", fused[0], fused[6], unfused[6])
			}
		}
	},

	// The placement experiment's acceptance bars: the load-aware placement
	// must cut the bytes imbalance the range placement suffers on the
	// frequency-sorted Zipf workload, and the hot-replica arm at staleness 0
	// must train to the same loss as plain range.
	"ext-skew": func(t *testing.T, res *Result) {
		rows := map[string][]string{}
		for _, row := range res.Rows {
			if row[0] == "LR-SGD zipf" {
				rows[row[1]] = row
			}
		}
		rangeRow, laRow := rows["range (default)"], rows["loadaware"]
		var repRow []string
		for mode, row := range rows {
			if strings.Contains(mode, "hot replicas") {
				repRow = row
			}
		}
		if rangeRow == nil || laRow == nil || repRow == nil {
			t.Fatalf("missing LR arms in %v", res.Rows)
		}
		rangeImb, laImb := parseNum(t, rangeRow[3]), parseNum(t, laRow[3])
		if laImb >= rangeImb {
			t.Fatalf("loadaware bytes imbalance %v not below range %v", laImb, rangeImb)
		}
		if repRow[6] != rangeRow[6] {
			t.Fatalf("hot-replica loss %q != range loss %q (staleness 0 must be bit-identical)", repRow[6], rangeRow[6])
		}
	},

	// The serving tier's acceptance gates: every arm accounts for every
	// request, the hot-replica fan-out keeps at least 70% of hot reads off
	// the owners, both mixed arms shed the unfavored class (and only under
	// admission control), the exact percentiles are ordered, and snapshot
	// reads stayed bit-identical under the concurrent push storm.
	"ext-serve": func(t *testing.T, res *Result) {
		if len(res.Rows) != 5 {
			t.Fatalf("want 5 arms, got %d: %v", len(res.Rows), res.Rows)
		}
		rows := map[string][]string{}
		for _, row := range res.Rows {
			rows[row[0]] = row
			req, served, shed := parseNum(t, row[1]), parseNum(t, row[2]), parseNum(t, row[3])
			if served+shed != req {
				t.Fatalf("%s: %v served + %v shed != %v requests", row[0], served, shed, req)
			}
			p50, p99 := parseNum(t, row[5]), parseNum(t, row[6])
			if !(p50 > 0) || p50 > p99 {
				t.Fatalf("%s: percentiles disordered: p50 %v, p99 %v", row[0], p50, p99)
			}
		}
		hot := rows["LR hot-replicas"]
		if hot == nil {
			t.Fatalf("missing hot-replica arm: %v", res.Rows)
		}
		local := parseNum(t, strings.TrimSuffix(hot[4], "%"))
		if local < 70 {
			t.Fatalf("hot reads local %.1f%%, want >= 70%%", local)
		}
		if shed := parseNum(t, rows["LR mixed favor=serve"][3]); shed != 0 {
			// Favored serving traffic fits this budget; only training sheds.
			t.Fatalf("favor=serve arm shed %v serving reads", shed)
		}
		if shed := parseNum(t, rows["LR mixed favor=train"][3]); shed == 0 {
			t.Fatal("favor=train arm shed no serving reads")
		}
		if shed := parseNum(t, rows["LR owner-routed"][3]); shed != 0 {
			t.Fatalf("owner-routed arm shed %v without admission control", shed)
		}
		var sawIdentical, sawShedNote bool
		for _, n := range res.Notes {
			if strings.Contains(n, "bit-identical") && !strings.Contains(n, " 0 of") {
				sawIdentical = true
			}
			if strings.Contains(n, "ErrOverload") {
				sawShedNote = true
			}
		}
		if !sawIdentical || !sawShedNote {
			t.Fatalf("notes missing snapshot-identity or shedding evidence: %v", res.Notes)
		}
	},

	// The elastic-membership acceptance bars: live rebalancing must beat
	// every static placement on the drifting-Zipf workload, 4→8 scale-out
	// must cut completion time against every static 4-server arm, and every
	// arm — static or migrating — must finish with the final row
	// bit-identical to the access-count oracle (the exact column: no lost or
	// double-applied push across migrations). An aborted migration panics
	// the run itself.
	"ext-elastic": func(t *testing.T, res *Result) {
		phases := elasticScale(Opts{Quick: true}).Phases
		rows := map[string][]string{}
		for _, row := range res.Rows {
			name := row[0]
			rows[name] = row
			if row[6] != "true" {
				t.Fatalf("%s: final row differs from the oracle (pushes lost or double-applied)", name)
			}
			migrations, movedMB := parseNum(t, row[3]), parseNum(t, row[4])
			if strings.HasPrefix(name, "static") {
				if migrations != 0 || movedMB != 0 {
					t.Fatalf("%s: static arm migrated (%v migrations, %v MB)", name, migrations, movedMB)
				}
			} else {
				if migrations != float64(phases-1) {
					t.Fatalf("%s: %v migrations, want one per boundary (%d)", name, migrations, phases-1)
				}
				if movedMB <= 0 {
					t.Fatalf("%s: migrations moved no bytes", name)
				}
			}
		}
		endSec := func(name string) float64 {
			row := rows[name]
			if row == nil {
				t.Fatalf("missing arm %q in %v", name, res.Rows)
			}
			return parseNum(t, row[1])
		}
		reb, out := endSec("rebalance ×4"), endSec("elastic 4→8")
		for _, static := range []string{"static range ×4", "static blockhash ×4", "static loadaware ×4"} {
			s := endSec(static)
			if reb >= s {
				t.Errorf("rebalance ×4 (%.4gs) does not beat %s (%.4gs)", reb, static, s)
			}
			if out >= s {
				t.Errorf("elastic 4→8 (%.4gs) does not beat %s (%.4gs)", out, static, s)
			}
		}
	},
}

// parseSpeed extracts the numeric part of a "3.4x" cell.
func parseSpeed(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", cell)
	}
	return v
}

// parseNum parses a numeric table cell.
func parseNum(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q", cell)
	}
	return v
}

// TestRegistryComplete keeps the registry and the committed snapshot naming
// the same experiments.
func TestRegistryComplete(t *testing.T) {
	snap := committedSnapshot(t)
	for _, e := range All() {
		if _, ok := snap[e.ID]; !ok {
			t.Errorf("experiment %q has no entry in %s; run scripts/bench_snapshot.sh", e.ID, snapshotPath)
		}
	}
	for id := range snap {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s entry %q names no registered experiment", snapshotPath, id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("s", 1.5)
	r.AddRow(3, 0.001)
	r.Note("hello %d", 7)
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "hello 7", "1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if formatFloat(math.NaN()) != "n/a" || formatFloat(math.Inf(1)) != "inf" {
		t.Fatal("formatFloat special cases wrong")
	}
	if fmtSpeed(math.NaN()) != "n/a" {
		t.Fatal("fmtSpeed NaN wrong")
	}
}

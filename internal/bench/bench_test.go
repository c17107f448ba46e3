package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick smoke-runs every registered experiment at quick
// scale and checks the output renders.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still takes tens of seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
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
		})
	}
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

func TestFig9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runFig9a(Opts{Quick: true})
	// Rows: Spark-Adam, PS-Adam, PS2-Adam. PS2 must win, Spark must lose.
	spark := parseSpeed(t, res.Rows[0][3])
	pullpush := parseSpeed(t, res.Rows[1][3])
	if !(spark > pullpush && pullpush > 1.0) {
		t.Fatalf("ordering violated: Spark=%vx PS=%vx", spark, pullpush)
	}
}

func TestFig1aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runFig1a(Opts{Quick: true})
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
}

func TestFig13cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runFig13c(Opts{Quick: true})
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
}

func TestTable3Shape(t *testing.T) {
	res := runTable3(Opts{Quick: true})
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
}

// TestExtCacheShape pins the cache experiment's acceptance bars: staleness 0
// is bit-identical to the uncached run, and the staleness-2 arm pulls at
// least 30% fewer bytes and finishes sooner.
func TestExtCacheShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runExtCache(Opts{Quick: true})
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
}

// TestExtConsistencyShape pins the policy ablation's acceptance bar: the
// value-bounded b=1 arm pulls at least 25% fewer bytes than clock s=2 while
// staying within 5% of its final loss.
func TestExtConsistencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runExtConsistency(Opts{Quick: true})
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
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "table1", "table2", "table3", "table4",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig11",
		"fig12a", "fig12b", "fig12c",
		"fig13a", "fig13b", "fig13c",
		"ablation-colocation", "ablation-sparsepull", "ablation-servers", "ablation-batching",
		"ablation-checkpoint",
		"ext-treeagg", "ext-mllibstar", "ext-ssp", "ext-fm", "ext-node2vec",
		"ext-recovery", "ext-chaos", "ext-fusion", "ext-cache", "ext-skew",
		"ext-elastic", "ext-wire", "ext-serve", "ext-hotpath", "ext-consistency",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestExtFusionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks run full experiments")
	}
	res := runExtFusion(Opts{Quick: true})
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
}

// TestExtHotpathShape pins the PR's acceptance bar: the buffer-reuse pass
// must cut steady-state allocations on the pull/push wire path by at least
// half, and the reuse arms of the codec/frame rows must allocate exactly
// nothing (the zero-alloc contract the wire tests also enforce).
func TestExtHotpathShape(t *testing.T) {
	res := runExtHotpath(Opts{Quick: true})
	if len(res.Rows) < 5 {
		t.Fatalf("hotpath table has %d rows, want >= 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		legacy, reuse := parseNum(t, row[2]), parseNum(t, row[3])
		if legacy == 0 {
			t.Fatalf("%s: legacy arm reports zero allocs; the comparison is vacuous", row[0])
		}
		if reuse > 0.5*legacy {
			t.Fatalf("%s: reuse arm allocates %v/op vs legacy %v/op; want >= 50%% reduction", row[0], reuse, legacy)
		}
		if row[0] != "sparse build" && reuse != 0 {
			t.Fatalf("%s: reuse arm allocates %v/op, want exactly 0", row[0], reuse)
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

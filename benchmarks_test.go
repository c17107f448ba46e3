package ps2

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarksModule runs the vet and the tests of benchmarks/, a module of
// its own that ./... never reaches: it compiles ps2perf against this tree and
// runs its TestSmoke — every workload, untraced and traced, at ~1 % size with
// the correctness checks on — so a rename that breaks the benchmark, or a
// change that makes a workload report "correct": false, fails here first.
func TestBenchmarksModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ps2serve and ps2worker")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmarks"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmarks/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

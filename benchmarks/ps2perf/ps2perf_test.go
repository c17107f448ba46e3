package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at ~1 % size: it
// catches a refactor that breaks the public surface the benchmark calls, or
// the command lines of ps2serve and ps2worker it drives.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ps2serve and ps2worker")
	}
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-smoke", "-bin", t.TempDir(), "-json", reportPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("ps2perf -smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range spec.Workloads {
		wr, ok := rep.Workloads[ws.Name]
		if !ok || !wr.Correct {
			t.Errorf("workload %s: missing or incorrect: %+v", ws.Name, wr.Notes)
			continue
		}
		// Every end-to-end metric exists on every workload and is never 0.
		for _, m := range spec.EndToEnd {
			if st, ok := wr.EndToEnd[m.Name]; !ok || st.Median <= 0 {
				t.Errorf("workload %s: end-to-end metric %s = %+v", ws.Name, m.Name, st)
			}
		}
		if len(wr.PerLayer) == 0 {
			t.Errorf("workload %s: the traced run reported no per-layer metric", ws.Name)
		}
	}
	// Every per-layer metric is measured on at least one workload.
	for _, m := range spec.PerLayer {
		seen := false
		for _, wr := range rep.Workloads {
			if _, ok := wr.PerLayer[m.Name]; ok {
				seen = true
			}
		}
		if !seen {
			t.Errorf("per-layer metric %s is in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
	if !strings.Contains(stdout.String(), "GOMAXPROCS=") {
		t.Errorf("the report carries no machine fingerprint:\n%s", stdout.String())
	}
}

// TestDriverLine checks the shape of the one line the driver reads.
func TestDriverLine(t *testing.T) {
	r := newResult()
	r.Attempted = 10
	r.Values["a"] = 1.5
	specs := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	if _, err := r.driverLine(specs, true); err == nil {
		t.Error("an end-to-end metric that was not measured must be an error")
	}
	line, err := r.driverLine(specs, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || got.Failed != 0 ||
		got.Metrics["a"] != (metricValue{1.5, "ms"}) || got.Metrics["b"] != (metricValue{0, "count"}) {
		t.Errorf("driver line %s decodes to %+v", line, got)
	}
}

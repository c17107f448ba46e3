package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// reference median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one place the metric names, units and
// bounds are written down; the program reads them from there.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json: the repo root, where the CLIs are built from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	// Values holds the run's metrics by name. Samples holds, for metrics
	// reported as a median over repetitions, the repetitions' values.
	Values  map[string]float64
	Samples map[string][]float64
	// Notes are findings a reader must see next to the numbers: a failed
	// check, a void run, an unattributed share of an iteration.
	Notes []string
}

func newResult() *result {
	return &result{Correct: true, Values: map[string]float64{}, Samples: map[string][]float64{}}
}

// sample adds one repetition's value of a metric reported as a median.
func (r *result) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

// finish turns the repetitions' samples into the reported medians.
func (r *result) finish() {
	for name, xs := range r.Samples {
		r.Values[name] = median(xs)
	}
}

// fail records a failed check; the run still reports its numbers.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "FAILED: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// driverLine renders the result as the one JSON object the driver reads: the
// metrics BENCHMARK.json lists for this kind of run, each with its unit. An
// end-to-end metric must have been measured; a per-layer metric that does not
// exist on this workload reads 0.
func (r *result) driverLine(specs []metricSpec, mustExist bool) ([]byte, error) {
	metrics := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := r.Values[m.Name]
		if !ok && mustExist {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
}

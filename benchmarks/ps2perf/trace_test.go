package main

import (
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	// An iteration of 100 µs with a 20 µs call, then two calls to two servers
	// side by side (30–60 and 40–70, covering 40 µs together), then nothing.
	spans := []span{
		{Name: "iteration", ID: 1, Start: 0, End: 100 * us},
		{Name: "distinct", ID: 2, Parent: 1, Start: 5 * us, End: 25 * us},
		{Name: "pull", ID: 3, Parent: 1, Start: 30 * us, End: 60 * us},
		{Name: "pull", ID: 4, Parent: 1, Start: 40 * us, End: 70 * us},
		// A grandchild takes its time out of its parent only.
		{Name: "decode", ID: 5, Parent: 3, Start: 50 * us, End: 55 * us},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"iteration": 40 * us, // 100 − 20 − 40
		"distinct":  20 * us,
		"pull":      55 * us, // (30 − 5) + 30
		"decode":    5 * us,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfTimesOfASerialTreeAddUpToTheRoot(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 90 * us},
		{Name: "a", ID: 2, Parent: 1, Start: 0, End: 30 * us},
		{Name: "b", ID: 3, Parent: 1, Start: 30 * us, End: 80 * us},
		{Name: "c", ID: 4, Parent: 3, Start: 35 * us, End: 45 * us},
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	if sum != 90*us {
		t.Errorf("self times add up to %v, want the root's 90µs", sum)
	}
}

func TestCoverageCountsSideBySideCallsOnce(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 10 * us, End: 30 * us},
		{Name: "step", Start: 12 * us, End: 28 * us}, // the second server, inside the first
		{Name: "pull", Start: 0, End: 10 * us},
		{Name: "step", Start: 50 * us, End: 60 * us},
	}
	if got := coverage(spans, "step"); got != 30*us {
		t.Errorf("coverage = %v, want 30µs", got)
	}
}

func TestCoveredClipsToTheParent(t *testing.T) {
	got := covered(10*us, 20*us, []interval{{0, 12 * us}, {18 * us, 30 * us}, {11 * us, 13 * us}})
	if got != 5*us { // 10–13 and 18–20
		t.Errorf("covered = %v, want 5µs", got)
	}
}

func TestOverlapsAny(t *testing.T) {
	busy := []interval{{100 * us, 200 * us}, {500 * us, 600 * us}}
	start := []time.Duration{0, 90 * us, 150 * us, 199 * us, 200 * us, 300 * us, 450 * us, 600 * us}
	end := []time.Duration{50 * us, 100 * us, 160 * us, 250 * us, 210 * us, 700 * us, 500 * us, 650 * us}
	want := []bool{
		false, // well before
		false, // ends as the write starts: half-open intervals do not touch
		true,  // inside
		true,  // starts inside, ends after
		false, // starts as the write ends
		true,  // spans the second write whole
		false, // ends as the second write starts
		false, // starts as it ends
	}
	got := overlapsAny(start, end, busy)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("read %d [%v,%v): overlaps = %v, want %v", i, start[i], end[i], got[i], want[i])
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are offsets from the tracer's base.
type span struct {
	Name   string
	ID     int // index in the tracer's span list, from 1
	Parent int // 0 for a root span
	Req    int // iteration or request id shared by the spans of one unit of work
	Lane   int // display lane (Chrome tid): one per concurrent caller
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// begin opens a span and returns its id, or 0 on a nil tracer.
func (t *tracer) begin(name string, parent, req, lane int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Lane: lane, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose times were measured elsewhere (the open-loop
// generator keeps its own arrays and files the spans after the run).
func (t *tracer) add(name string, req, lane int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Req: req, Lane: lane, Start: start, End: end})
	t.mu.Unlock()
}

// interval is a half-open stretch of the timeline.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once. It sorts ivs in place.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	at := lo
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// selfTimes returns, by span name, the summed self time: each span's
// duration minus the part of it that its child spans cover. Children that run
// side by side (one call per server) are counted once, so the self times of a
// tree add up to the duration of its root.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// coverage returns how long at least one span called name was open: calls
// that run side by side, one per server, count once.
func coverage(spans []span, name string) time.Duration {
	var ivs []interval
	var end time.Duration
	for _, s := range spans {
		if s.Name == name {
			ivs = append(ivs, interval{s.Start, s.End})
			end = max(end, s.End)
		}
	}
	return covered(0, end, ivs)
}

// durationsUS returns the durations of the spans called name, in µs.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// overlapsAny reports, for each [start[i], end[i]), whether it overlaps any
// of the busy intervals. busy must be sorted by lo and must not overlap each
// other (one writer issues them in turn).
func overlapsAny(start, end []time.Duration, busy []interval) []bool {
	out := make([]bool, len(start))
	for i := range start {
		// First busy interval that ends after this one starts.
		j := sort.Search(len(busy), func(k int) bool { return busy[k].hi > start[i] })
		out[i] = j < len(busy) && busy[j].lo < end[i]
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events with the span's id, parent and request id as
// arguments.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// Package obs is the observability layer of the PS2 reproduction: a
// deterministic, virtual-time-native span tracer with its exporters
// (Chrome-trace JSON for chrome://tracing / Perfetto, a compact per-phase
// summary) and the Snapshot every run reports through.
//
// Everything in this package is keyed by *virtual* time and node identity, so
// two runs with the same seed and fault plan export byte-identical traces —
// trace-diffing is a correctness tool here, not just a profiler.
//
// The package is a leaf: it imports only the standard library, so every layer
// of the system (simnet, ps, dcv, rdd, core) can emit into it. All entry
// points are nil-safe: a nil *Tracer turns every call into a
// cheap no-op, which is the "tracing disabled" fast path — instrumented hot
// paths pay one pointer comparison and nothing else.
package obs

// Kind classifies a span or instant event. Kinds map onto the phase taxonomy
// the paper's evaluation reasons about (where time goes: compute vs
// communication vs wait vs recovery); see Kind.Phase.
type Kind uint8

const (
	// Span kinds.
	KNetSend    Kind = iota // one message transfer (egress + latency + ingress)
	KRPC                    // client side of one logical shard call, retries included
	KRPCWait                // client backoff/timeout sleep inside an RPC
	KServerOp               // server-side execution of one request (work + handler)
	KFusedBatch             // server-side decode+execute of a fused op program
	KBatch                  // client-side dcv.Batch run (record → fused fan-out)
	KTask                   // one rdd task attempt on its executor
	KStage                  // one rdd stage barrier on the driver
	KCheckpoint             // one server shard streaming to the reliable store
	KRecovery               // fence → provision → restore pipeline for one server
	KFence                  // fencing the old machine inside a recovery
	KRestore                // replaying one matrix shard from the store
	KDetectWin              // detector fencing window: declared dead → recovered

	// Instant kinds.
	KDetect    // detector declares a server dead
	KDedupHit  // server drops a retried mutation (applied-set hit)
	KTaskRetry // rdd task attempt failed; driver reschedules
	KMsgLost   // chaos dropped a message
	KFault     // fault-plan action fired
	KMark      // free-form annotation

	// Span kinds appended after the original set (numeric values of earlier
	// kinds must not shift — committed golden traces encode them).
	KMigration     // one elastic placement migration, bulk copy through swap
	KMigrateStream // one source→target shard transfer inside a migration
	KCutover       // migration cutover: gate closed, deltas shipped, routing swapped
	KServeRead     // one serving-tier read (ModelReader.Read), container over its RPCs
	KAdmit         // admission-control queue wait before a data-plane call
	KIteration     // one iteration of a training loop, on the driver or an SSP worker's executor
	KLoopPhase     // one phase (round, barrier) of a training-loop iteration
)

var kindNames = [...]string{
	KNetSend: "net.send", KRPC: "rpc.call", KRPCWait: "rpc.wait",
	KServerOp: "ps.op", KFusedBatch: "ps.fused", KBatch: "dcv.batch",
	KTask: "rdd.task", KStage: "rdd.stage",
	KCheckpoint: "ps.checkpoint", KRecovery: "ps.recovery", KFence: "ps.fence",
	KRestore: "ps.restore", KDetectWin: "ps.detect-window",
	KDetect: "ps.detect", KDedupHit: "ps.dedup-hit", KTaskRetry: "rdd.retry",
	KMsgLost: "net.lost", KFault: "chaos.fault", KMark: "mark",
	KMigration: "ps.migration", KMigrateStream: "ps.migrate-stream",
	KCutover:   "ps.cutover",
	KServeRead: "serve.read", KAdmit: "ps.admit",
	KIteration: "loop.iter", KLoopPhase: "loop.phase",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Phase is the coarse bucket a kind's time is accounted under in the
// per-phase summary.
type Phase uint8

const (
	PhaseOther    Phase = iota // container spans; excluded from the summary
	PhaseComm                  // bytes moving through NICs
	PhaseWait                  // blocked on retry/backoff, not computing or sending
	PhaseCompute               // server-side op execution
	PhaseRecovery              // checkpointing, fencing, restoring
)

// Phase returns the summary bucket for the kind. Container spans (rpc call,
// task, stage, batch) overlap their children, so they report PhaseOther and
// are left out of the phase totals to avoid double counting.
func (k Kind) Phase() Phase {
	switch k {
	case KNetSend:
		return PhaseComm
	case KRPCWait, KAdmit:
		return PhaseWait
	case KServerOp, KFusedBatch:
		return PhaseCompute
	case KCheckpoint, KRecovery, KFence, KRestore, KDetectWin, KCutover:
		return PhaseRecovery
	}
	// KMigration, KMigrateStream, KServeRead, KIteration and KLoopPhase are
	// containers: their time overlaps the spans nested inside them.
	return PhaseOther
}

// KV is one event annotation. Values are pre-formatted strings so the export
// is byte-stable regardless of host float formatting context.
type KV struct{ K, V string }

// Event is one recorded span or instant. Times are virtual seconds.
type Event struct {
	ID     uint64 // 1-based; 0 means "no event"
	Parent uint64 // ID of the enclosing span, or 0
	Lane   int    // index into Tracer.Lanes
	Track  int    // row within the lane (concurrent spans get separate rows)
	Kind   Kind
	Name   string
	Start  float64
	End    float64
	Args   []KV

	Instant bool
	open    bool
}

// Dur returns the span duration in virtual seconds.
func (e Event) Dur() float64 { return e.End - e.Start }

// Lane is one horizontal timeline in the exported trace — one simulated node
// (or the pseudo-node EnvLane for environment events like fault injections).
type Lane struct {
	Node int // simulated node ID, or EnvLane
	Name string

	// tracks[i] is the stack of open event indices on row i of this lane.
	tracks [][]int
}

// EnvLane is the pseudo-node ID used for events with no machine (fault-plan
// actions, run-level marks).
const EnvLane = -1

// Tracer records spans against virtual time. Create one with New; a nil
// *Tracer is the disabled tracer and every method on it is a no-op.
type Tracer struct {
	clock  func() float64
	events []Event
	lanes  []Lane
	laneBy map[int]int // node ID -> lane index
	maxT   float64

	// byKindCount/byKindDur aggregate per (lane, kind) as spans end, so phase
	// summaries and registry fills never rescan the event list.
	agg map[aggKey]*aggVal
}

type aggKey struct {
	lane int
	kind Kind
}

type aggVal struct {
	count uint64
	dur   float64
}

// New creates an enabled tracer reading virtual time from clock.
func New(clock func() float64) *Tracer {
	return &Tracer{clock: clock, laneBy: map[int]int{}, agg: map[aggKey]*aggVal{}}
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in creation order (shared slice; callers
// must not mutate). Unfinished spans have End < Start until EndOpen or export
// clamps them.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Lanes returns the registered lanes in first-use order.
func (t *Tracer) Lanes() []Lane {
	if t == nil {
		return nil
	}
	return t.lanes
}

func (t *Tracer) now() float64 {
	v := t.clock()
	if v > t.maxT {
		t.maxT = v
	}
	return v
}

// lane returns the lane index for node, registering it on first use.
func (t *Tracer) lane(node int, name string) int {
	if i, ok := t.laneBy[node]; ok {
		return i
	}
	t.lanes = append(t.lanes, Lane{Node: node, Name: name})
	i := len(t.lanes) - 1
	t.laneBy[node] = i
	return i
}

// Span is a handle to an open span. The zero value is inert: End on it is a
// no-op, and passing it as a parent means "no parent".
type Span struct {
	t   *Tracer
	idx int // event index + 1; 0 = inert
}

// OK reports whether the span is live (recorded by an enabled tracer).
func (s Span) OK() bool { return s.t != nil && s.idx != 0 }

// ID returns the span's event ID, or 0 for the inert span.
func (s Span) ID() uint64 {
	if !s.OK() {
		return 0
	}
	return s.t.events[s.idx-1].ID
}

// Begin opens a span on node's lane. parent may be the zero Span ("no
// parent"); when the parent is open on the same lane and is the innermost
// span of its row, the child nests visually under it, otherwise the child is
// placed on the lane's first free row so concurrent spans never overlap
// within a row (Perfetto renders each row as one thread).
func (t *Tracer) Begin(node int, nodeName string, kind Kind, name string, parent Span, args ...KV) Span {
	if t == nil {
		return Span{}
	}
	li := t.lane(node, nodeName)
	lane := &t.lanes[li]
	if parent.t != t {
		parent = Span{} // a span from another tracer cannot be a parent here
	}
	var parentID uint64
	if parent.OK() {
		parentID = parent.t.events[parent.idx-1].ID
	}
	// Row selection: nest under the parent when it is the innermost open span
	// of its row on this lane; otherwise take the first empty row.
	track := -1
	if parent.OK() {
		pe := &parent.t.events[parent.idx-1]
		if pe.open && pe.Lane == li {
			stack := lane.tracks[pe.Track]
			if len(stack) > 0 && stack[len(stack)-1] == parent.idx-1 {
				track = pe.Track
			}
		}
	}
	if track < 0 {
		for i := range lane.tracks {
			if len(lane.tracks[i]) == 0 {
				track = i
				break
			}
		}
	}
	if track < 0 {
		lane.tracks = append(lane.tracks, nil)
		track = len(lane.tracks) - 1
	}
	now := t.now()
	t.events = append(t.events, Event{
		ID: uint64(len(t.events) + 1), Parent: parentID,
		Lane: li, Track: track, Kind: kind, Name: name,
		Start: now, End: now - 1, Args: args, open: true,
	})
	idx := len(t.events) - 1
	lane.tracks[track] = append(lane.tracks[track], idx)
	return Span{t: t, idx: idx + 1}
}

// End closes the span at the current virtual time, optionally attaching
// result annotations. Ending twice, or ending the zero Span, is a no-op.
func (s Span) End(args ...KV) {
	if !s.OK() {
		return
	}
	t := s.t
	e := &t.events[s.idx-1]
	if !e.open {
		return
	}
	e.open = false
	e.End = t.now()
	if len(args) > 0 {
		e.Args = append(e.Args, args...)
	}
	lane := &t.lanes[e.Lane]
	stack := lane.tracks[e.Track]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s.idx-1 {
			lane.tracks[e.Track] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	t.bump(e.Lane, e.Kind, e.End-e.Start)
}

func (t *Tracer) bump(lane int, kind Kind, dur float64) {
	k := aggKey{lane, kind}
	v := t.agg[k]
	if v == nil {
		v = &aggVal{}
		t.agg[k] = v
	}
	v.count++
	v.dur += dur
}

// Instant records a zero-duration event on node's lane.
func (t *Tracer) Instant(node int, nodeName string, kind Kind, name string, args ...KV) {
	if t == nil {
		return
	}
	li := t.lane(node, nodeName)
	now := t.now()
	t.events = append(t.events, Event{
		ID: uint64(len(t.events) + 1), Lane: li, Kind: kind, Name: name,
		Start: now, End: now, Args: args, Instant: true,
	})
	t.bump(li, kind, 0)
}

// EndOpen force-closes every still-open span at the current virtual time,
// annotating it as unfinished. Exporters call it so a trace captured from an
// aborted run still loads.
func (t *Tracer) EndOpen() {
	if t == nil {
		return
	}
	for i := range t.events {
		if t.events[i].open {
			Span{t: t, idx: i + 1}.End(KV{"unfinished", "true"})
		}
	}
}

// PhaseBreakdown sums closed-span durations (virtual seconds) by phase
// bucket. Container spans (PhaseOther) are excluded; see Kind.Phase.
type PhaseBreakdown struct {
	CommSec     float64
	WaitSec     float64
	ComputeSec  float64
	RecoverySec float64
}

// Phases aggregates the tracer's closed spans into a phase breakdown. A nil
// tracer returns the zero breakdown.
func (t *Tracer) Phases() PhaseBreakdown {
	var p PhaseBreakdown
	if t == nil {
		return p
	}
	for k, v := range t.agg {
		switch k.kind.Phase() {
		case PhaseComm:
			p.CommSec += v.dur
		case PhaseWait:
			p.WaitSec += v.dur
		case PhaseCompute:
			p.ComputeSec += v.dur
		case PhaseRecovery:
			p.RecoverySec += v.dur
		}
	}
	return p
}

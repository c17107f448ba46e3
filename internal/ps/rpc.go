package ps

// This file is the fault-tolerant RPC layer between PS-clients and
// PS-servers. Every data-plane operator (pull, push, server-side invoke)
// funnels through Matrix.CallShard, which wraps one logical request to one
// shard in a retry/timeout/backoff loop:
//
//   - a lost message (chaos drop) costs one client timeout, then a resend;
//   - a dead or crashed server costs exponential backoff until the master's
//     failure detector recovers it, at which point the retry lands on the
//     replacement machine;
//   - MaxRetries exhausted surfaces a typed ErrServerDown instead of the
//     pre-fault-tolerance behaviour of panicking the whole simulation.
//
// Delivery is at-least-once; *effects* are exactly-once per server
// incarnation: when the run is unreliable, every mutating request takes an
// ID from the master's Ledger and servers filter it through their
// AppliedSet (dedup.go), so a retry after a lost response does not
// double-apply a gradient. The applied-set dies with the server — state
// restored from a checkpoint may re-apply a pre-crash update, which matches
// the paper's loss-since-checkpoint recovery semantics.

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrServerDown is returned (wrapped) by every operator when a shard's server
// stays unreachable for MaxRetries attempts.
var ErrServerDown = errors.New("ps: server down")

// RetryConfig tunes the client-side retry loop.
type RetryConfig struct {
	TimeoutSec    float64 // wait after a lost message before resending
	BackoffSec    float64 // initial wait when the server is known down
	MaxBackoffSec float64 // backoff cap
	MaxRetries    int     // attempts before giving up with ErrServerDown
}

// DefaultRetryConfig returns the retry policy used by all experiments: with
// the default detector (0.5 s interval, 2 misses) a crashed server is
// replaced in ~1.5 s, well inside MaxRetries × MaxBackoffSec.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{
		TimeoutSec:    0.25,
		BackoffSec:    0.05,
		MaxBackoffSec: 1.0,
		MaxRetries:    120,
	}
}

func (rc RetryConfig) withDefaults() RetryConfig {
	d := DefaultRetryConfig()
	if rc.TimeoutSec <= 0 {
		rc.TimeoutSec = d.TimeoutSec
	}
	if rc.BackoffSec <= 0 {
		rc.BackoffSec = d.BackoffSec
	}
	if rc.MaxBackoffSec <= 0 {
		rc.MaxBackoffSec = d.MaxBackoffSec
	}
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = d.MaxRetries
	}
	return rc
}

// CallSpec describes one logical RPC to one shard.
type CallSpec struct {
	Name     string  // operator name for tracing ("pull", "push-add", …)
	Shard    int     // logical shard index
	ReqBytes float64 // request size on the wire (including framing)

	// RespBytes is the response size; RespBytesFn overrides it when the size
	// is only known server-side (e.g. compressed pulls ship the shard's nnz).
	RespBytes   float64
	RespBytesFn func(sh *Shard) float64

	// Work charges server CPU before the handler runs: Work(s, width) for
	// logical shard s, whose column count is width.
	Work func(s, width int) float64

	// Mutates marks requests whose handler changes shard state; they get a
	// request ID and server-side dedup so retries apply effects exactly once
	// per server incarnation.
	Mutates bool

	// Touched lists the row indices a mutating handler may write, in any
	// order, duplicates ok: CallShard diffs each distinct row once. It marks
	// them dirty for delta checkpoints and, on versioned shards, diffs their
	// values around the handler to stamp exactly the changed elements. nil
	// means undeclared: every row is conservatively marked.
	Touched []int

	// The server-side handler, in one of two forms. Fn runs in the event
	// loop and must not block; BlockingFn may (the DCV shuffle fetches
	// operand slices from peer servers) and runs on a coroutine for that
	// step only. Either gets the logical shard index and may return a
	// retryable error. Errors wrapping ErrSnapshotInvalid are the exception:
	// a fenced snapshot can never become valid again, so they surface
	// immediately.
	Fn         func(s int, sh *Shard) error
	BlockingFn func(cp *simnet.Proc, s int, sh *Shard) error

	// Fused counts the ops of a fused program (Invoke); more than one opens
	// a fused-batch trace span around Fn.
	Fused int

	// Class is the admission class the call is charged under when the master
	// has admission control installed (serve.go). The zero value is
	// ClassTrain, so every pre-existing operator is training traffic.
	Class Class

	// delivered, if set, runs when the response is delivered, at the point
	// where a process would go on after CallShard returned nil. It gets the
	// spec the call ran.
	delivered func(spec *CallSpec)
}

// NetStats counts data-plane RPC activity on a master. Calls is the number
// of logical CallShard invocations (one per shard touched per operator);
// Attempts includes retries. Batches counts fused programs: Invoke calls
// carrying more than one op, and FusedOps the ops they carried. DedupPruned
// counts applied-set entries retired by the acknowledgement watermark (see
// dedup.go).
type NetStats struct {
	Calls       uint64
	Attempts    uint64
	Batches     uint64
	FusedOps    uint64
	DedupHits   uint64 // retried mutations dropped by a server's applied-set
	DedupPruned uint64
	Bytes       float64 // payload bytes of delivered data-plane transfers (send)
}

// send is the data plane's fallible transfer — RPC requests and responses,
// heartbeats, replica revalidations, checkpoint streams: the kernel's TrySend
// plus the delivered-bytes count. Control-plane metadata RPCs (CreateMatrix,
// membership joins) keep the kernel's infallible Send: rerouting them would
// consume chaos draws and shift every golden trace.
func (m *Master) send(p *simnet.Proc, from, to *simnet.Node, bytes float64) error {
	if err := from.TrySend(p, to, bytes); err != nil {
		return err
	}
	m.Net.Bytes += bytes
	return nil
}

// unreliable reports whether failures can occur in this run: a fault has
// already been injected, or the chaos layer is armed.
func (m *Master) unreliable() bool {
	return m.Unreliable || m.Cl.Sim.ChaosEnabled()
}

// CallShard performs one at-least-once RPC against logical shard spec.Shard,
// retrying through message loss and server crashes. It returns nil once the
// response is delivered, an error wrapping simnet.ErrNodeDown if the calling
// machine itself is down, and an error wrapping ErrServerDown after
// MaxRetries failed attempts. The call is a step chain (see call) run on p,
// which is resumed once, when it ends.
func (mat *Matrix) CallShard(p *simnet.Proc, from *simnet.Node, spec CallSpec) error {
	m := mat.master
	c := m.newCall(mat, from)
	c.spec = spec
	p.Chain(c.start, c.unwind)
	err := c.err
	m.freeCall(c)
	return err
}

// call is one CallShard in flight: the record its steps share. The steps
// mirror one pass of a retry loop — admission, the request, the server's
// compute, the handler, the response — and each that waits (a transfer, the
// compute, a backoff) ends by starting a kernel-run operation with the next
// step as its continuation.
type call struct {
	mat       *Matrix
	from      *simnet.Node
	spec      CallSpec
	rc        RetryConfig
	id        uint64 // request ID for dedup; 0 when the call needs none
	touched   []int
	attempt   int
	backoff   float64
	srv       *Server
	node      *simnet.Node
	sh        *Shard
	snap      [][]float64 // the touched rows' pre-images, for commitMutate
	respBytes float64
	hErr      error // the handler's result
	err       error // the call's result
	link      *call // the next call of the same fan-out

	// Trace spans: the RPC, the server op, the current wait; and the trace
	// parent the RPC replaced.
	rpc, op, wait obs.Span
	prevRPC       obs.Span
	callSteps
}

// callSteps are a call's steps bound to it once, so that a pooled record's
// chain allocates nothing.
type callSteps struct {
	start, sent, computed, blocking, handled, delivered, waited, unwind func(*simnet.Proc)
}

// newCall takes a call record from the master's pool.
func (m *Master) newCall(mat *Matrix, from *simnet.Node) *call {
	var c *call
	if n := len(m.calls); n > 0 {
		c = m.calls[n-1]
		m.calls = m.calls[:n-1]
	} else {
		c = &call{}
		c.callSteps = callSteps{c.begin, c.requestSent, c.computedStep,
			c.runBlocking, c.handledStep, c.responseSent, c.waitedStep, c.unwound}
	}
	c.mat, c.from = mat, from
	return c
}

// freeCall returns a finished call's record to the pool.
func (m *Master) freeCall(c *call) {
	*c = call{callSteps: c.callSteps}
	m.calls = append(m.calls, c)
}

// begin starts the call: request ID, trace span, admission.
func (c *call) begin(p *simnet.Proc) {
	m := c.mat.master
	c.rc = m.Retry.withDefaults()
	m.Net.Calls++
	// Zero means "no dedup": clean runs pay no tracking. The ID settles when
	// the call ends, whatever the outcome.
	if c.spec.Mutates && m.unreliable() {
		c.id = m.ledger.Next()
	}
	if c.spec.Name == "" {
		c.spec.Name = "rpc"
	}
	// A row listed twice is one row: diffing it twice would count its drift
	// twice.
	c.touched = sortedUniqueInts(c.spec.Touched)
	from := c.from
	if t := m.Cl.Sim.Tracer(); t != nil {
		c.rpc = t.Begin(from.ID, from.Name, obs.KRPC, c.spec.Name, p.TraceParent(),
			obs.KV{K: "mat", V: strconv.Itoa(c.mat.ID)},
			obs.KV{K: "shard", V: strconv.Itoa(c.spec.Shard)})
		c.prevRPC = p.SetTraceParent(c.rpc)
	}
	c.backoff = c.rc.BackoffSec
	if adm := m.Admission; adm != nil {
		// Admission control charges the call against the target server's
		// token bucket before any wire traffic: queued calls wait here, shed
		// calls return ErrOverload without consuming an attempt. Shedding is
		// final — overload is a policy decision, not a transient fault, so the
		// retry loop never sees it.
		srv := c.mat.srv(c.spec.Shard).Index
		delay, err := adm.admit(m, srv, c.spec.Class, p.Now())
		if err != nil {
			c.finish(p, err)
			return
		}
		if delay > 0 {
			if t := m.Cl.Sim.Tracer(); t != nil {
				c.wait = t.Begin(from.ID, from.Name, obs.KAdmit, "admit", p.TraceParent(),
					obs.KV{K: "srv", V: fmt.Sprint(srv)}, obs.KV{K: "class", V: c.spec.Class.String()})
			}
			p.After(delay, c.waited)
			return
		}
	}
	c.try(p)
}

// try makes attempt c.attempt: route the request and send it.
func (c *call) try(p *simnet.Proc) {
	m := c.mat.master
	if c.attempt >= c.rc.MaxRetries {
		c.finish(p, fmt.Errorf("ps: shard %d of matrix %d unreachable after %d attempts: %w",
			c.spec.Shard, c.mat.ID, c.rc.MaxRetries, ErrServerDown))
		return
	}
	m.Net.Attempts++
	if !c.from.Up() {
		c.finish(p, c.clientDown())
		return
	}
	c.srv = c.mat.srv(c.spec.Shard)
	if !c.srv.alive || !c.srv.Node.Up() {
		// Known-dead server: wait for the detector to swap in a
		// replacement, backing off exponentially.
		c.backOff(p)
		return
	}
	c.node = c.srv.Node
	c.from.TrySendThen(p, c.node, c.spec.ReqBytes, c.sent)
}

// requestSent: the request reached the server, or failed to.
func (c *call) requestSent(p *simnet.Proc) {
	if !c.transferred(p, c.spec.ReqBytes) {
		return
	}
	sh, ok := c.srv.shards[c.mat.ID]
	if !ok {
		// Raced a crash between routing and arrival.
		c.backOff(p)
		return
	}
	c.sh = sh
	if t := c.mat.master.Cl.Sim.Tracer(); t != nil {
		c.op = t.Begin(c.node.ID, c.node.Name, obs.KServerOp, c.spec.Name, c.rpc)
	}
	if c.spec.Work != nil {
		c.node.ComputeThen(p, c.spec.Work(c.spec.Shard, sh.Width()), c.computed)
		return
	}
	c.computedStep(p)
}

// computedStep: the server's CPU has served the request; run the handler.
func (c *call) computedStep(p *simnet.Proc) {
	m := c.mat.master
	// The server may have crashed (and even been replaced) while the
	// request was queued on its CPU; a handler must not touch dead state.
	if c.stale(p) {
		return
	}
	srv := c.srv
	if c.id != 0 {
		// The request piggybacks the master's acknowledgement watermark;
		// the server drops dedup entries for IDs that can never be resent.
		m.Net.DedupPruned += uint64(srv.applied.Retire(m.ledger.Watermark()))
	}
	_, dedupHit := srv.applied.Lookup(c.id)
	if dedupHit {
		m.Net.DedupHits++
		if t := m.Cl.Sim.Tracer(); t != nil {
			t.Instant(c.node.ID, c.node.Name, obs.KDedupHit, c.spec.Name)
		}
	}
	if dedupHit || c.spec.Fn == nil && c.spec.BlockingFn == nil {
		c.reply(p)
		return
	}
	if c.spec.Mutates {
		c.snap = c.sh.preMutate(c.touched)
	}
	if c.spec.BlockingFn != nil {
		p.Block(c.blocking, c.handled)
		return
	}
	var fb obs.Span
	if t := m.Cl.Sim.Tracer(); t != nil && c.spec.Fused > 1 {
		fb = t.Begin(c.node.ID, c.node.Name, obs.KFusedBatch, "fused-batch", c.op,
			obs.KV{K: "ops", V: strconv.Itoa(c.spec.Fused)})
	}
	c.hErr = c.spec.Fn(c.spec.Shard, c.sh)
	fb.End()
	c.handledStep(p)
}

// runBlocking runs a BlockingFn handler, on a coroutine. While it runs, the
// server-op span is the process's trace context, so the events it emits
// (operand shuffles) nest under it.
func (c *call) runBlocking(cp *simnet.Proc) {
	prev := cp.SetTraceParent(c.op)
	c.hErr = c.spec.BlockingFn(cp, c.spec.Shard, c.sh)
	cp.SetTraceParent(prev)
}

// handledStep: the handler has returned; commit its effects.
func (c *call) handledStep(p *simnet.Proc) {
	if err := c.hErr; err != nil {
		c.hErr = nil
		c.op.End(obs.KV{K: "err", V: err.Error()})
		if errors.Is(err, ErrSnapshotInvalid) {
			// A fenced snapshot pin stays fenced; retrying would just
			// burn the retry budget and misreport ErrServerDown.
			c.finish(p, err)
			return
		}
		c.retry(p, c.rc.TimeoutSec)
		return
	}
	// The handler may have blocked, or crashed its own server; re-validate
	// before committing.
	if c.stale(p) {
		return
	}
	if c.id != 0 {
		c.srv.applied.Record(c.id, nil)
	}
	if c.spec.Mutates {
		c.sh.commitMutate(c.touched, c.snap)
	}
	c.reply(p)
}

// stale backs off and reports true when the server crashed, or was
// replaced, since the request arrived.
func (c *call) stale(p *simnet.Proc) bool {
	if c.node.Up() && c.srv.Node == c.node && c.srv.shards[c.mat.ID] == c.sh {
		return false
	}
	c.op.End(obs.KV{K: "stale", V: "true"})
	c.backOff(p)
	return true
}

// reply sends the response.
func (c *call) reply(p *simnet.Proc) {
	c.op.End()
	c.respBytes = c.spec.RespBytes
	if c.spec.RespBytesFn != nil {
		c.respBytes = c.spec.RespBytesFn(c.sh)
	}
	c.node.TrySendThen(p, c.from, c.respBytes, c.delivered)
}

// responseSent: the response reached the client, which ends the call, or
// failed to.
func (c *call) responseSent(p *simnet.Proc) {
	// A lost response leaves the effect applied but unacked: the
	// applied-set makes the resend idempotent.
	if !c.transferred(p, c.respBytes) {
		return
	}
	// Delivered: account the request against the physical server that
	// served it — the per-server load view ext-skew's imbalance gauge
	// reads.
	m := c.mat.master
	m.Load[c.srv.Index].Ops++
	m.Load[c.srv.Index].Bytes += c.spec.ReqBytes + c.respBytes
	c.finish(p, nil)
	if d := c.spec.delivered; d != nil {
		d(&c.spec)
	}
}

// transferred counts a delivered message's bytes and reports true, or, for
// a failed one, ends or retries the call and reports false.
func (c *call) transferred(p *simnet.Proc, bytes float64) bool {
	err := p.Err()
	if err == nil {
		c.mat.master.Net.Bytes += bytes
		return true
	}
	switch {
	case !c.from.Up():
		c.finish(p, c.clientDown())
	case errors.Is(err, simnet.ErrMsgLost):
		c.retry(p, c.rc.TimeoutSec)
	default:
		c.backOff(p)
	}
	return false
}

// clientDown is the error of a call whose own machine crashed.
func (c *call) clientDown() error {
	return fmt.Errorf("ps: client machine %q crashed: %w", c.from.Name, simnet.ErrNodeDown)
}

// backOff retries after the current backoff, which then doubles up to its
// cap.
func (c *call) backOff(p *simnet.Proc) {
	d := c.backoff
	c.backoff = min(c.backoff*2, c.rc.MaxBackoffSec)
	c.retry(p, d)
}

// retry makes the next attempt in d seconds.
func (c *call) retry(p *simnet.Proc, d float64) {
	c.attempt++
	if t := c.mat.master.Cl.Sim.Tracer(); t != nil {
		c.wait = t.Begin(c.from.ID, c.from.Name, obs.KRPCWait, "wait", c.rpc)
	}
	p.After(d, c.waited)
}

// waitedStep: a retry's or the admission queue's wait is over.
func (c *call) waitedStep(p *simnet.Proc) {
	c.wait.End()
	c.wait = obs.Span{}
	c.try(p)
}

// finish ends the call with err.
func (c *call) finish(p *simnet.Proc, err error) {
	c.err = err
	c.unwound(p)
}

// unwound closes what the call opened: its trace span and request ID. It
// also runs if the simulation stops mid-call.
func (c *call) unwound(p *simnet.Proc) {
	if c.rpc.OK() {
		p.SetTraceParent(c.prevRPC)
		c.rpc.End()
	}
	if c.id != 0 {
		c.mat.master.ledger.Settle(c.id)
	}
}

// LiveShard returns logical shard s if its server is up and holds the data,
// and an error wrapping ErrServerDown otherwise. It is the fallible sibling
// of HostShard, used by the DCV shuffle path to read operand slices.
func (mat *Matrix) LiveShard(s int) (*Shard, error) {
	srv := mat.srv(s)
	sh, ok := srv.shards[mat.ID]
	if !ok || !srv.alive || !srv.Node.Up() {
		return nil, fmt.Errorf("ps: shard %d of matrix %d unavailable: %w", s, mat.ID, ErrServerDown)
	}
	return sh, nil
}

// reliableSend retries a transfer through message loss until delivered. It
// gives up only when an endpoint is down (returning the ErrNodeDown) or
// after a very large retry budget (returning ErrMsgLost) — the master uses
// it for checkpoint and restore streams, whose endpoints include the
// reliable store.
func (m *Master) reliableSend(p *simnet.Proc, from, to *simnet.Node, bytes float64) error {
	rc := m.Retry.withDefaults()
	var err error
	for i := 0; i < 10000; i++ {
		err = m.send(p, from, to, bytes)
		if err == nil || errors.Is(err, simnet.ErrNodeDown) {
			return err
		}
		p.Sleep(rc.TimeoutSec)
	}
	return err
}

// fanOut is the one per-shard scaffold, under every operator and the cached
// pulls alike. It issues spec to each logical shard in ascending order, as a
// step child named spec.Name (no coroutine: the call's chain runs in the
// event loop); shard, if not nil, first fills in shard s's part of its copy
// — false skips the shard: no call, no child, no traffic. Work that follows
// a call's reply runs in spec.delivered. It waits for all the calls and
// returns the lowest-numbered shard's error. Callers hold the route gate, so
// the placement cannot change underneath it.
func (mat *Matrix) fanOut(p *simnet.Proc, from *simnet.Node, spec CallSpec, shard func(s int, c *CallSpec) bool) error {
	m := mat.master
	g := p.Sim().NewGroup()
	var first, last *call
	for s := range mat.Part.NumServers() {
		c := m.newCall(mat, from)
		c.spec = spec
		c.spec.Shard = s
		if shard != nil && !shard(s, &c.spec) {
			m.freeCall(c)
			continue
		}
		if last == nil {
			first = c
		} else {
			last.link = c
		}
		last = c
		g.Step(spec.Name, c.start, c.unwind)
	}
	g.Wait(p)
	var err error
	for c := first; c != nil; {
		if err == nil {
			err = c.err
		}
		next := c.link
		m.freeCall(c)
		c = next
	}
	return err
}

// CallShards is fanOut for code outside this package — the DCV layer's
// operators and the trainers alike: spec goes to each logical shard in
// parallel, as a step child named spec.Name, after shard, if not nil, fills
// in shard s's part (false skips the shard: no call, no traffic). It holds the
// matrix's route gate for the duration so an elastic migration cutover cannot
// swap the placement mid-fan-out.
func (mat *Matrix) CallShards(p *simnet.Proc, from *simnet.Node, spec CallSpec, shard func(s int, c *CallSpec) bool) error {
	mat.enterOp(p)
	defer mat.exitOp()
	return mat.fanOut(p, from, spec, shard)
}

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

	// Work charges server CPU before Fn runs; width is the shard's column
	// count.
	Work func(width int) float64

	// Mutates marks requests whose Fn changes shard state; they get a request
	// ID and server-side dedup so retries apply effects exactly once per
	// server incarnation.
	Mutates bool

	// Touched lists the row indices a mutating Fn may write, in any order,
	// duplicates ok: CallShard diffs each distinct row once. It marks them
	// dirty for delta checkpoints and, on versioned shards, diffs their
	// values around Fn to stamp exactly the changed elements. nil means
	// undeclared: every row is conservatively marked.
	Touched []int

	// Fn is the server-side handler. It may block (the DCV shuffle path
	// fetches operand slices from peer servers) and may return a retryable
	// error. Errors wrapping ErrSnapshotInvalid are the exception: a fenced
	// snapshot can never become valid again, so they surface immediately.
	Fn func(cp *simnet.Proc, sh *Shard) error

	// Class is the admission class the call is charged under when the master
	// has admission control installed (serve.go). The zero value is
	// ClassTrain, so every pre-existing operator is training traffic.
	Class Class
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
// MaxRetries failed attempts.
func (mat *Matrix) CallShard(p *simnet.Proc, from *simnet.Node, spec CallSpec) error {
	m := mat.master
	rc := m.Retry.withDefaults()
	m.Net.Calls++
	// Zero means "no dedup": clean runs pay no tracking. The ID settles when
	// this loop exits, whatever the outcome.
	var id uint64
	if spec.Mutates && m.unreliable() {
		id = m.ledger.Next()
		defer m.ledger.Settle(id)
	}
	if spec.Name == "" {
		spec.Name = "rpc"
	}
	// A row listed twice is one row: diffing it twice would count its drift
	// twice.
	touched := sortedUniqueInts(spec.Touched)
	t := m.Cl.Sim.Tracer()
	var rpc obs.Span
	if t != nil {
		rpc = t.Begin(from.ID, from.Name, obs.KRPC, spec.Name, p.TraceParent(),
			obs.KV{K: "mat", V: strconv.Itoa(mat.ID)},
			obs.KV{K: "shard", V: strconv.Itoa(spec.Shard)})
		prev := p.SetTraceParent(rpc)
		defer func() {
			p.SetTraceParent(prev)
			rpc.End()
		}()
	}
	if adm := m.Admission; adm != nil {
		// Admission control charges the call against the target server's
		// token bucket before any wire traffic: queued calls sleep here, shed
		// calls return ErrOverload without consuming an attempt. Shedding is
		// final — overload is a policy decision, not a transient fault, so the
		// retry loop below never sees it.
		if err := adm.admit(p, m, from, mat.srv(spec.Shard).Index, spec.Class); err != nil {
			return err
		}
	}
	backoff := rc.BackoffSec
	wait := func(d float64) {
		if t != nil {
			ws := t.Begin(from.ID, from.Name, obs.KRPCWait, "wait", rpc)
			p.Sleep(d)
			ws.End()
			return
		}
		p.Sleep(d)
	}
	for attempt := 0; attempt < rc.MaxRetries; attempt++ {
		m.Net.Attempts++
		if !from.Up() {
			return fmt.Errorf("ps: client machine %q crashed: %w", from.Name, simnet.ErrNodeDown)
		}
		srv := mat.srv(spec.Shard)
		if !srv.alive || !srv.Node.Up() {
			// Known-dead server: wait for the detector to swap in a
			// replacement, backing off exponentially.
			wait(backoff)
			backoff = min(backoff*2, rc.MaxBackoffSec)
			continue
		}
		node := srv.Node
		if err := m.send(p, from, node, spec.ReqBytes); err != nil {
			if !from.Up() {
				return fmt.Errorf("ps: client machine %q crashed: %w", from.Name, simnet.ErrNodeDown)
			}
			if errors.Is(err, simnet.ErrMsgLost) {
				wait(rc.TimeoutSec)
			} else {
				wait(backoff)
				backoff = min(backoff*2, rc.MaxBackoffSec)
			}
			continue
		}
		sh, ok := srv.shards[mat.ID]
		if !ok {
			// Raced a crash between routing and arrival.
			wait(backoff)
			backoff = min(backoff*2, rc.MaxBackoffSec)
			continue
		}
		var op obs.Span
		if t != nil {
			op = t.Begin(node.ID, node.Name, obs.KServerOp, spec.Name, rpc)
		}
		if spec.Work != nil {
			node.Compute(p, spec.Work(sh.Width()))
		}
		// The server may have crashed (and even been replaced) while the
		// request was queued on its CPU; a handler must not touch dead state.
		if !node.Up() || srv.Node != node || srv.shards[mat.ID] != sh {
			op.End(obs.KV{K: "stale", V: "true"})
			wait(backoff)
			backoff = min(backoff*2, rc.MaxBackoffSec)
			continue
		}
		if id != 0 {
			// The request piggybacks the master's acknowledgement watermark;
			// the server drops dedup entries for IDs that can never be resent.
			m.Net.DedupPruned += uint64(srv.applied.Retire(m.ledger.Watermark()))
		}
		_, dedupHit := srv.applied.Lookup(id)
		if dedupHit {
			m.Net.DedupHits++
			if t != nil {
				t.Instant(node.ID, node.Name, obs.KDedupHit, spec.Name)
			}
		}
		if spec.Fn != nil && !dedupHit {
			var snap [][]float64
			if spec.Mutates {
				snap = sh.preMutate(touched)
			}
			// While the handler runs, the server-op span is the process's trace
			// context, so handler-emitted events (fused batches, operand
			// shuffles) nest under it.
			prevFn := p.SetTraceParent(op)
			err := spec.Fn(p, sh)
			p.SetTraceParent(prevFn)
			if err != nil {
				op.End(obs.KV{K: "err", V: err.Error()})
				if errors.Is(err, ErrSnapshotInvalid) {
					// A fenced snapshot pin stays fenced; retrying would just
					// burn the retry budget and misreport ErrServerDown.
					return err
				}
				wait(rc.TimeoutSec)
				continue
			}
			// Fn may block (operand shuffle); re-validate before committing.
			if !node.Up() || srv.Node != node || srv.shards[mat.ID] != sh {
				op.End(obs.KV{K: "stale", V: "true"})
				wait(backoff)
				backoff = min(backoff*2, rc.MaxBackoffSec)
				continue
			}
			if id != 0 {
				srv.applied.Record(id, nil)
			}
			if spec.Mutates {
				sh.commitMutate(touched, snap)
			}
		}
		op.End()
		respBytes := spec.RespBytes
		if spec.RespBytesFn != nil {
			respBytes = spec.RespBytesFn(sh)
		}
		if err := m.send(p, node, from, respBytes); err != nil {
			if !from.Up() {
				return fmt.Errorf("ps: client machine %q crashed: %w", from.Name, simnet.ErrNodeDown)
			}
			// Effect applied but unacked: the applied-set makes the resend
			// idempotent.
			if errors.Is(err, simnet.ErrMsgLost) {
				wait(rc.TimeoutSec)
			} else {
				wait(backoff)
				backoff = min(backoff*2, rc.MaxBackoffSec)
			}
			continue
		}
		// Delivered: account the request against the physical server that
		// served it — the per-server load view ext-skew's imbalance gauge
		// reads.
		m.Load[srv.Index].Ops++
		m.Load[srv.Index].Bytes += spec.ReqBytes + respBytes
		return nil
	}
	return fmt.Errorf("ps: shard %d of matrix %d unreachable after %d attempts: %w",
		spec.Shard, mat.ID, rc.MaxRetries, ErrServerDown)
}

// LiveShard returns logical shard s if its server is up and holds the data,
// and an error wrapping ErrServerDown otherwise. It is the fallible sibling
// of ShardOf, used by the DCV shuffle path to read operand slices.
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

// shardBody is one shard's share of a fan-out, run in its own child process.
type shardBody func(cp *simnet.Proc) error

// fanOut is the per-server scaffold under every operator. It asks shard for
// each logical shard's body in ascending order — nil skips the shard: no
// child, no traffic — spawning a child process named name per body, waits
// for all of them and returns the lowest-numbered shard's error. Callers
// hold the route gate, so the placement cannot change underneath it.
func (mat *Matrix) fanOut(p *simnet.Proc, name string, shard func(s int) shardBody) error {
	errs := make([]error, mat.Part.NumServers())
	g := p.Sim().NewGroup()
	for s := range errs {
		if body := shard(s); body != nil {
			g.Go(name, func(cp *simnet.Proc) { errs[s] = body(cp) })
		}
	}
	g.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call is the common shardBody: one CallShard from machine from.
func (mat *Matrix) call(from *simnet.Node, spec CallSpec) shardBody {
	return func(cp *simnet.Proc) error { return mat.CallShard(cp, from, spec) }
}

// CallShards issues spec(s) to every logical shard s in parallel, in child
// processes named name, holding the matrix's route gate for the duration so
// an elastic migration cutover cannot swap the placement mid-fan-out — the
// entry point for operators implemented outside this package (the DCV layer).
func (mat *Matrix) CallShards(p *simnet.Proc, from *simnet.Node, name string, spec func(s int) CallSpec) error {
	mat.enterOp(p)
	defer mat.exitOp()
	return mat.fanOut(p, name, func(s int) shardBody { return mat.call(from, spec(s)) })
}

package ps

// This file is the online serving tier: the read-optimized path that answers
// inference traffic against matrices that may still be training.
//
// Three pieces, composable but independent:
//
//   - ModelSnapshot: snapshot-consistent reads pinned at a chosen model
//     clock. A pin costs no bulk copy and never blocks pushes — it records
//     each shard's current version stamp (versions.go) and, from then on,
//     the first write to each element preserves that element's pre-image in
//     a side map (copy-on-write, charged to nobody: host-side bookkeeping).
//     A snapshot read serves elements whose version is still at or below the
//     pin from live storage and the rest from the pre-image map, so it is
//     bit-identical to the moment of the pin no matter how many pushes have
//     landed since. Epoch fencing makes torn reads impossible: a recovery or
//     a placement migration bumps the ShardEpoch, and a pinned snapshot
//     whose epoch no longer matches refuses with ErrSnapshotInvalid instead
//     of returning restored or re-placed values.
//
//   - ModelReader: the serving fan-out. Live reads route hot columns through
//     a HotReplicaSet (a rotating server answers from its replica store —
//     the hot working set never hammers the owner) and cold columns fall
//     through to their owners via the ordinary pull RPCs. Reads are exact
//     as of the matrix's model clock (below): replicas revalidate once per
//     clock and take no freshness knob.
//
//   - AdmissionControl: a per-server token bucket (GCRA form) with a bounded
//     virtual queue. A call that would queue past the bound is shed with the
//     typed ErrOverload — queueing is never unbounded — and the bound is
//     class-aware: the favored class (serve > train or train > serve,
//     configurable) gets the full queue, the other class is shed earlier.
//     Installed on the Master it gates every data-plane CallShard, so mixed
//     train+serve traffic shares one budget per server.
//
// The model clock. Replica freshness and snapshot pins need a notion of
// "the model advanced". It lives on the Matrix (TickClock/Clock): trainers
// tick it once per iteration at the barrier, every HotReplicaSet attached to
// the matrix reads it, and a serving caller — who doesn't own the training
// loop — never ticks anything.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrOverload is the typed error a shed call surfaces (wrapped): admission
// control refused it because the target server's queue bound was reached.
// Callers are expected to drop or retry the request at their own pace; the
// RPC layer never retries a shed call.
var ErrOverload = errors.New("ps: server overloaded")

// ErrSnapshotInvalid is the typed error (wrapped) a pinned ModelSnapshot
// surfaces once epoch fencing has invalidated it: a server recovery, a
// placement migration or an undeclared bulk mutation landed after the pin,
// so the pre-image bookkeeping can no longer reconstruct the pinned values.
// The snapshot never returns torn data — re-pin and retry instead.
var ErrSnapshotInvalid = errors.New("ps: model snapshot invalidated")

// Class classifies data-plane calls for admission control. The zero value is
// ClassTrain so every existing operator is training traffic by default; the
// serving tier tags its reads ClassServe.
type Class uint8

const (
	ClassTrain Class = iota // training traffic (pulls, pushes, fused steps)
	ClassServe              // serving-tier reads
)

func (c Class) String() string {
	if c == ClassServe {
		return "serve"
	}
	return "train"
}

// ---------------------------------------------------------------------------
// Model clock

// Clock returns the matrix's model clock: the count of training barriers
// since creation. Replica freshness ("validated at clock c serves until
// c+staleness") and snapshot pins are expressed against it.
func (mat *Matrix) Clock() int64 { return mat.clock }

// TickClock advances the model clock by one. Trainers call it once per
// iteration right after the optimizer step — the moment the model actually
// changed — so replica stores attached by serving callers revalidate without
// the caller having to drive any clock of its own. Host-side, free.
func (mat *Matrix) TickClock() { mat.clock++ }

// ---------------------------------------------------------------------------
// Admission control

// AdmissionConfig tunes the per-server token bucket and its bounded queue.
type AdmissionConfig struct {
	// RatePerSec is the sustained admitted-call rate per server (required).
	RatePerSec float64
	// Burst is the bucket depth: how many calls can be admitted back-to-back
	// after an idle period. Default 1.
	Burst float64
	// MaxQueue bounds how many calls may wait for tokens at one server. A
	// call that would queue deeper is shed with ErrOverload. Default 64.
	MaxQueue int
	// LowQueue is the queue bound for the unfavored class — it sheds earlier,
	// which is what makes Favor a priority. Default MaxQueue/4 (at least 1).
	LowQueue int
	// Favor names the class that gets the full MaxQueue bound. The zero
	// value favors ClassTrain (training throughput); serving deployments
	// set ClassServe to put inference latency first.
	Favor Class
}

func (cfg AdmissionConfig) withDefaults() (AdmissionConfig, error) {
	if cfg.RatePerSec <= 0 {
		return cfg, fmt.Errorf("ps: AdmissionConfig.RatePerSec must be positive, got %g", cfg.RatePerSec)
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.LowQueue <= 0 {
		cfg.LowQueue = max(1, cfg.MaxQueue/4)
	}
	return cfg, nil
}

// AdmissionControl is the per-server token bucket in GCRA form: tat[s] is
// server s's theoretical arrival time — the virtual instant its bucket next
// has a token if every earlier admitted call spends one. All host-side; the
// only virtual charge is the queue sleep of a delayed call.
type AdmissionControl struct {
	cfg AdmissionConfig
	tat []simnet.Time
}

// NewAdmissionControl validates cfg and returns a control ready to install
// on a Master (SetAdmission). Server state grows on demand, so elastic
// scale-out needs no resizing call.
func NewAdmissionControl(cfg AdmissionConfig) (*AdmissionControl, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &AdmissionControl{cfg: cfg}, nil
}

// SetAdmission installs (or, with nil, removes) admission control on every
// data-plane call of this master. Installing mid-run is fine — benchmarks
// train unthrottled and arm the gate when the serving stream starts.
func (m *Master) SetAdmission(a *AdmissionControl) { m.Admission = a }

// admit charges one call against server s's bucket at virtual time now:
// admitted at once (delay 0) when a token is free, queued (admitted after
// delay seconds, which the caller waits) while the queue bound admits it,
// shed with ErrOverload beyond that. The favored class gets MaxQueue, the
// other LowQueue — shedding the unfavored class first is the whole priority
// mechanism, and it keeps admission order deterministic (no reordering).
func (a *AdmissionControl) admit(m *Master, s int, class Class, now simnet.Time) (delay simnet.Time, err error) {
	for s >= len(a.tat) {
		a.tat = append(a.tat, 0)
	}
	interval := 1.0 / a.cfg.RatePerSec
	tolerance := (a.cfg.Burst - 1) * interval
	tat := a.tat[s]
	if tat < now {
		tat = now // idle refill, capped at one full bucket by the tolerance
	}
	delay = float64(tat) - tolerance - float64(now)
	if delay <= 0 {
		a.tat[s] = tat + simnet.Time(interval)
		m.Serve.Admitted++
		return 0, nil
	}
	depth := int(math.Ceil(delay / interval))
	bound := a.cfg.MaxQueue
	if class != a.cfg.Favor {
		bound = a.cfg.LowQueue
	}
	if depth > bound {
		if class == ClassServe {
			m.Serve.ShedServe++
		} else {
			m.Serve.ShedTrain++
		}
		return 0, fmt.Errorf("ps: server %d sheds %v call (queue depth %d > bound %d): %w",
			s, class, depth, bound, ErrOverload)
	}
	a.tat[s] = tat + simnet.Time(interval)
	m.Serve.Admitted++
	m.Serve.Delayed++
	m.Serve.QueueDelaySec += delay
	if depth > m.Serve.MaxQueueDepth {
		m.Serve.MaxQueueDepth = depth
	}
	return delay, nil
}

// ---------------------------------------------------------------------------
// ModelSnapshot

// snapKey identifies one element of a pinned shard by row and local column
// position (local, not absolute: the pin is bound to one shard incarnation,
// whose layout cannot change while the pin is valid).
type snapKey struct{ row, local int }

// shardSnap is one shard's side of a pin: the shard incarnation, the version
// and epoch at pin time, and the pre-images of elements overwritten since.
// versions.go fills old on the first post-pin change of each element;
// touchAll (an undeclared bulk mutation has no pre-images to preserve) sets
// invalid instead.
type shardSnap struct {
	sh      *Shard
	ver     uint64
	epoch   uint64
	old     map[snapKey]float64
	invalid bool
}

// preserve records the pre-image of element (r, local) into every active pin
// the element still belongs to — called by commitMutate just before the
// element's version stamp moves past the pin. An element whose stamp already
// exceeds a pin's version changed before and its pre-image is already saved.
func (sh *Shard) preserve(r, local int, oldVal float64) {
	for _, sp := range sh.snaps {
		if sp.invalid || sh.elemVer[r][local] > sp.ver {
			continue
		}
		sp.old[snapKey{row: r, local: local}] = oldVal
	}
}

// invalidateSnaps marks every active pin torn — the fallback when a mutation
// has no pre-images to preserve (touchAll).
func (sh *Shard) invalidateSnaps() {
	for _, sp := range sh.snaps {
		sp.invalid = true
	}
}

// ModelSnapshot is a consistent read view of a matrix pinned at a model
// clock. Reads through it return exactly the values that were live at the
// pin, bit-identical no matter how many pushes landed since, at the same
// wire cost as a plain sparse pull. See the file comment for the
// copy-on-write mechanism and the fencing guarantees.
type ModelSnapshot struct {
	mat    *Matrix
	clock  int64
	pins   []*shardSnap
	closed bool
}

// PinSnapshot pins a snapshot of the matrix at the current model clock. The
// pin itself is a host-instant metadata operation (in a deployed system: one
// tiny RPC per server riding the next heartbeat): it enables version stamps,
// records each shard's version under the route gate, and registers the
// pre-image hooks. Pushes are never blocked; the cost is proportional to the
// elements actually overwritten while the pin is open. Close the snapshot
// when done so that bookkeeping is dropped.
func (mat *Matrix) PinSnapshot(p *simnet.Proc) (*ModelSnapshot, error) {
	mat.EnableVersioning()
	mat.enterOp(p)
	defer mat.exitOp()
	ms := &ModelSnapshot{mat: mat, clock: mat.clock, pins: make([]*shardSnap, mat.Part.NumServers())}
	for s := range ms.pins {
		sh, err := mat.LiveShard(s)
		if err != nil {
			ms.Close()
			return nil, fmt.Errorf("ps: pin snapshot of matrix %d: %w", mat.ID, err)
		}
		sp := &shardSnap{sh: sh, ver: sh.ver, epoch: mat.ShardEpoch(s), old: map[snapKey]float64{}}
		sh.snaps = append(sh.snaps, sp)
		ms.pins[s] = sp
	}
	mat.master.Serve.SnapshotsPinned++
	return ms, nil
}

// Valid reports whether the snapshot can still serve reads: open, not torn
// by an undeclared mutation, and every pinned shard incarnation and epoch
// still live (host-side; a read performs the same checks authoritatively).
func (ms *ModelSnapshot) Valid() bool {
	if ms.closed || len(ms.pins) != ms.mat.Part.NumServers() {
		return false
	}
	for s, sp := range ms.pins {
		if sp == nil || sp.invalid || sp.sh == nil || ms.mat.ShardEpoch(s) != sp.epoch {
			return false
		}
	}
	return true
}

// Close releases the pin: pre-image maps are dropped and pushes stop paying
// the preservation hook. Idempotent.
func (ms *ModelSnapshot) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	for _, sp := range ms.pins {
		if sp == nil || sp.sh == nil {
			continue
		}
		snaps := sp.sh.snaps
		for i, reg := range snaps {
			if reg == sp {
				sp.sh.snaps = append(snaps[:i], snaps[i+1:]...)
				break
			}
		}
		sp.sh = nil
		sp.old = nil
	}
}

// fenced returns the typed error for a pin that no longer matches the live
// shard state, counting the fence.
func (ms *ModelSnapshot) fenced(s int) error {
	ms.mat.master.Serve.SnapshotFences++
	return fmt.Errorf("ps: snapshot of matrix %d pinned at clock %d fenced at shard %d: %w",
		ms.mat.ID, ms.clock, s, ErrSnapshotInvalid)
}

// ReadRowIndices reads the pinned values of the given (strictly
// increasing) column indices of one row — the snapshot flavor of
// PullRowIndices, same wire cost plus one version stamp per request. It
// returns an error wrapping ErrSnapshotInvalid when the pin has been fenced
// (recovery, migration, undeclared bulk write, or Close), and never a torn
// mixture of pinned and newer values.
func (ms *ModelSnapshot) ReadRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error) {
	mat := ms.mat
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	mat.enterOp(p)
	defer mat.exitOp()
	m := mat.master
	if ms.closed || len(ms.pins) != mat.Part.NumServers() {
		// Closed, or an elastic migration changed the placement width: the
		// logical shards the pins were taken against no longer exist.
		ms.mat.master.Serve.SnapshotFences++
		return nil, fmt.Errorf("ps: snapshot of matrix %d pinned at clock %d no longer matches its placement: %w",
			mat.ID, ms.clock, ErrSnapshotInvalid)
	}
	cost := m.Cl.Cost
	out := make([]float64, len(indices))
	split := splitRuns(mat.Part, indices)
	buf := split.buffer(out)
	// Check every pin before any child is spawned: a fence found mid-fan-out
	// would return while lower-numbered shards' children are still issuing
	// RPCs — past the caller's exitOp, which breaks the route gate's "no
	// in-flight op during cutover" invariant.
	for s, sp := range ms.pins {
		if len(split.of[s]) > 0 && (sp.invalid || mat.ShardEpoch(s) != sp.epoch) {
			return nil, ms.fenced(s)
		}
	}
	spec := CallSpec{Name: "serve-snapshot", Class: ClassServe}
	spec.Fn = func(s int, sh *Shard) error {
		// Authoritative fence: the handler sees the live shard. A different
		// incarnation (recovery swapped it in) or a moved epoch means the
		// pin is dead — a non-retryable error, surfaced as-is by CallShard.
		sp := ms.pins[s]
		if sh != sp.sh || sp.invalid || mat.ShardEpoch(s) != sp.epoch {
			return ms.fenced(s)
		}
		lo, run := sh.locate(split.of[s])
		dst := split.vals(s, buf)
		for k, col := range run {
			l := col - lo
			if sh.elemVer[row][l] <= sp.ver {
				dst[k] = sh.at(row, l) // unchanged since the pin
			} else {
				v, ok := sp.old[snapKey{row: row, local: l}]
				if !ok {
					return ms.fenced(s)
				}
				dst[k] = v // overwritten since; serve the pre-image
			}
		}
		return nil
	}
	err := mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		// Indices plus the pinned version stamp out, values back.
		n := float64(len(split.of[s]))
		c.ReqBytes = cost.RequestOverheadB + 4*n + 8
		c.RespBytes = cost.RequestOverheadB + 8*n
		return n > 0
	})
	if err != nil {
		return nil, err
	}
	split.restore(buf, out)
	m.Serve.SnapshotReads++
	return out, nil
}

// ---------------------------------------------------------------------------
// ModelReader

// ServeConfig configures a ModelReader.
type ServeConfig struct {
	// Replicas, when non-nil, builds a HotReplicaSet for the reader: the
	// configured hot columns are replicated to every server and live reads of
	// them are answered by a rotating serving server's local store instead of
	// the owner. Cold columns always fall through to their owners.
	Replicas *ReplicaConfig
}

// ModelReader is the serving tier's read handle on one matrix: the one entry
// point inference traffic goes through. It is pure host-side routing — the
// virtual charges are its RPCs — and is safe to use while the matrix is
// still training.
type ModelReader struct {
	mat     *Matrix
	rs      *HotReplicaSet
	allCols []int // lazily built 0..Dim-1 for ReadRow
}

// NewModelReader attaches a reader to mat. Version stamps are enabled (pins
// and replica revalidation need them); with a replica config the hot-column
// fan-out is set up too.
func NewModelReader(mat *Matrix, cfg ServeConfig) (*ModelReader, error) {
	mat.EnableVersioning()
	mr := &ModelReader{mat: mat}
	if cfg.Replicas != nil {
		rs, err := NewHotReplicaSet(mat, *cfg.Replicas)
		if err != nil {
			return nil, err
		}
		mr.rs = rs
	}
	return mr, nil
}

// Matrix returns the served matrix.
func (mr *ModelReader) Matrix() *Matrix { return mr.mat }

// Replicas returns the reader's hot-replica set, or nil when reads are
// purely owner-routed.
func (mr *ModelReader) Replicas() *HotReplicaSet { return mr.rs }

// Snapshot pins a consistent view of the served matrix at the current model
// clock; read against it with its ReadRowIndices. Close it when done.
func (mr *ModelReader) Snapshot(p *simnet.Proc) (*ModelSnapshot, error) {
	return mr.mat.PinSnapshot(p)
}

// Read returns the live values of the given (strictly increasing) column
// indices of one row: replica-served (hot columns, within the replica set's
// policy) or owner-routed, admission-classed as serving traffic. Errors are
// part of the serving contract: ErrOverload when shed, ErrServerDown past the
// retry budget, ErrBadIndices for malformed requests.
func (mr *ModelReader) Read(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error) {
	m := mr.mat.master
	var span obs.Span
	if t := m.Cl.Sim.Tracer(); t != nil {
		span = t.Begin(from.ID, from.Name, obs.KServeRead, "serve.read", p.TraceParent(),
			obs.KV{K: "mat", V: fmt.Sprint(mr.mat.ID)})
		prev := p.SetTraceParent(span)
		defer func() {
			p.SetTraceParent(prev)
			span.End()
		}()
	}
	var out []float64
	var err error
	if mr.rs != nil {
		out, err = mr.rs.pull(p, from, row, indices, nil, ClassServe)
	} else {
		mr.mat.checkRow(row)
		if err = validateIndices(indices, mr.mat.Dim); err != nil {
			return nil, err
		}
		mr.mat.enterOp(p)
		out, err = mr.mat.pullRowIndices(p, from, row, indices, make([]float64, len(indices)), ClassServe)
		mr.mat.exitOp()
	}
	if err != nil {
		return nil, err
	}
	m.Serve.Reads++
	m.Serve.ReadVals += uint64(len(out))
	return out, nil
}

// ReadRow reads one full row — the embedding-lookup shape (a vertex's
// vector). Same semantics as Read with every column requested.
func (mr *ModelReader) ReadRow(p *simnet.Proc, from *simnet.Node, row int) ([]float64, error) {
	if mr.allCols == nil {
		mr.allCols = make([]int, mr.mat.Dim)
		for i := range mr.allCols {
			mr.allCols[i] = i
		}
	}
	return mr.Read(p, from, row, mr.allCols)
}

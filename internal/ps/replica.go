package ps

// HotReplicaSet is opt-in hot-parameter replication: the top-K hottest
// columns of a matrix (chosen by the caller from a sampled access profile)
// are replicated to every server, so client reads of hot columns can be
// served by ANY server instead of hammering the owner — NuPS-style hot-spot
// management layered on top of whatever placement the matrix uses.
//
// Consistency. Each server holds its replicas in the copy store (copies.go),
// which states the validity rule, if-modified-since against the owner's
// element versions, and the owner-epoch fence. Replicas have no freshness
// knob: every copy is judged by ClockBounded(0) against the matrix's model
// clock (Matrix.TickClock, serve.go), which trainers advance once per
// iteration after the optimizer step, so replica reads in a BSP loop are
// bit-identical to owner reads: the first read of a clock revalidates every
// column against the owner's live value, and the row cannot change again
// until the next tick.
//
// Load shedding. A hot read costs the client one RPC to a rotating serving
// server; the serving server answers from its replica store and only the
// first read after a tick (or a write) costs an owner round-trip that ships
// the changed values. N tasks re-reading the hot set each iteration thus pay
// the owner once per iteration instead of N times, and the client-side
// request/response bytes spread over all servers — the per-server Load
// counters show the difference.
//
// Fault tolerance. A serving server's store dies with its machine: its own
// recovery epoch rides the store, and a mismatch resets it. The RPC itself is
// a CallShard, so it inherits retry/backoff/dedup wholesale.

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/arena"
	"repro/internal/consistency"
	"repro/internal/simnet"
)

// ReplicaConfig tunes a HotReplicaSet.
type ReplicaConfig struct {
	// HotCols lists the replicated columns, strictly increasing. Callers
	// typically pick the top-K of a sampled column-access profile (TopKCols).
	HotCols []int
}

// replicaPolicy judges every replica copy: revalidate anything not validated
// this model clock, so replica reads, for training pulls and ModelReader
// reads alike, are exact as of the clock.
var replicaPolicy = consistency.NewClockBounded(0)

// ReplicaStats accumulates hot-replication counters on the Master.
type ReplicaStats struct {
	Reads        uint64 // hot-column values requested through the replica layer
	LocalHits    uint64 // of those, served from a fresh replica copy
	OwnerFetches uint64 // replica→owner revalidation round-trips
	ChangedVals  uint64 // values the owner actually shipped (the rest validated unchanged)
	EpochFences  uint64 // copy sets or stores discarded on a recovery epoch change
}

// replicaStore is one serving server's replica memory. epoch is the serving
// server's own recovery epoch: a bump means the machine (and the store with
// it) was replaced. inflight single-flights owner revalidation: concurrent
// same-clock requests at a barrier would otherwise each pay the owner round
// trip for the same stale copies (a thundering herd); instead followers wait
// for the leader's fetch and then serve locally.
type replicaStore struct {
	epoch         uint64
	sets          map[copyKey]*copySet
	inflight      *simnet.Signal
	inflightClock int64
}

// HotReplicaSet serves reads of a chosen hot-column set from all servers.
// Like the CachedClient it is pure host-side bookkeeping: the only virtual
// charges are its RPCs.
type HotReplicaSet struct {
	mat    *Matrix
	hot    map[int]bool
	rr     int
	stores []*replicaStore
}

// NewHotReplicaSet attaches hot-column replication to mat, enabling the
// per-element version stamps replicas validate against. HotCols must be
// strictly increasing and within the matrix dimension.
func NewHotReplicaSet(mat *Matrix, cfg ReplicaConfig) (*HotReplicaSet, error) {
	if err := validateIndices(cfg.HotCols, mat.Dim); err != nil {
		return nil, err
	}
	mat.EnableVersioning()
	rs := &HotReplicaSet{mat: mat, hot: make(map[int]bool, len(cfg.HotCols))}
	for _, c := range cfg.HotCols {
		rs.hot[c] = true
	}
	rs.resync()
	return rs, nil
}

// Stats returns the master-wide replication counters.
func (rs *HotReplicaSet) Stats() ReplicaStats { return rs.mat.master.Replica }

// Clock returns the matrix model clock replica freshness is judged against.
func (rs *HotReplicaSet) Clock() int64 { return rs.mat.clock }

// TopKCols returns the k highest-weight column indices, ascending — the
// standard way to pick HotCols from a sampled access profile. Ties break
// toward lower columns for determinism.
func TopKCols(weight []float64, k int) []int {
	if k > len(weight) {
		k = len(weight)
	}
	idx := make([]int, len(weight))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weight[idx[a]] > weight[idx[b]] })
	top := append([]int(nil), idx[:k]...)
	sort.Ints(top)
	return top
}

// PullRowIndices is the replica-aware sparse pull: replicated columns are
// served by a rotating server from its replica store (revalidating against
// owners as the staleness bound requires) and the rest take the ordinary
// owner-routed path. It assembles into out or a fresh buffer, aligned with
// indices, as Matrix.PullRowIndices does.
func (rs *HotReplicaSet) PullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64) ([]float64, error) {
	return rs.pull(p, from, row, indices, out, ClassTrain)
}

// pull is PullRowIndices with an explicit admission class — the serving tier
// (ModelReader) reads through it to tag its traffic ClassServe.
func (rs *HotReplicaSet) pull(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64, class Class) ([]float64, error) {
	mat := rs.mat
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	out = sparseOut(out, len(indices))
	mat.enterOp(p)
	defer mat.exitOp()
	rs.resync()
	hotCols, hotPos := make([]int, 0, len(indices)), make([]int, 0, len(indices))
	var coldCols, coldPos []int
	for k, col := range indices {
		if rs.hot[col] {
			hotCols = append(hotCols, col)
			hotPos = append(hotPos, k)
		} else {
			coldCols = append(coldCols, col)
			coldPos = append(coldPos, k)
		}
	}
	var errHot, errCold error
	g := p.Sim().NewGroup()
	if len(coldCols) > 0 {
		g.Go("replica-cold", func(cp *simnet.Proc) {
			// The ungated core: this child runs under the gate the parent
			// already holds, so the gated wrapper would deadlock a cutover.
			vals, err := mat.pullRowIndices(cp, from, row, coldCols, make([]float64, len(coldCols)), class)
			if err != nil {
				errCold = err
				return
			}
			for j, k := range coldPos {
				out[k] = vals[j]
			}
		})
	}
	if len(hotCols) > 0 {
		// Rotate the serving server per call: concurrent tasks spread their
		// hot reads over the whole cluster.
		t := rs.rr
		rs.rr = (rs.rr + 1) % mat.Part.NumServers()
		g.Go("replica-hot", func(cp *simnet.Proc) {
			cost := mat.master.Cl.Cost
			errHot = mat.CallShard(cp, from, CallSpec{
				Name:      "replica-pull",
				Shard:     t,
				Class:     class,
				ReqBytes:  cost.RequestOverheadB + 4*float64(len(hotCols)),
				RespBytes: cost.RequestOverheadB + 8*float64(len(hotCols)),
				BlockingFn: func(fp *simnet.Proc, _ int, _ *Shard) error {
					return rs.serveHot(fp, t, row, hotCols, hotPos, out)
				},
			})
			if errHot == nil {
				mat.master.Replica.Reads += uint64(len(hotCols))
			}
		})
	}
	g.Wait(p)
	if err := cmp.Or(errHot, errCold); err != nil {
		return nil, err
	}
	return out, nil
}

// resync rebuilds the per-server replica stores after an elastic membership
// change resized the placement: store state is keyed by logical shard, so a
// different server count means every store's contents may alias the wrong
// owner. Stores for a same-width placement swap are instead fenced lazily by
// the gen-mixed ShardEpoch check in serveHot. Called under the matrix gate,
// so the placement cannot change mid-rebuild.
func (rs *HotReplicaSet) resync() {
	p := rs.mat.Part.NumServers()
	if len(rs.stores) == p {
		return
	}
	if rs.stores != nil {
		rs.mat.master.Replica.EpochFences++
	}
	rs.stores = make([]*replicaStore, p)
	for s := range rs.stores {
		rs.stores[s] = &replicaStore{epoch: rs.mat.ShardEpoch(s), sets: map[copyKey]*copySet{}}
	}
	rs.rr %= p
}

// serveHot runs on serving shard t, inside the client's CallShard: admitted
// copies of the row's hot columns cols answer locally, and the rest are read
// from their owners (one round-trip per owner shard that has work). Each
// column's value lands in out at its position in pos. Retryable errors
// propagate to the enclosing CallShard loop.
func (rs *HotReplicaSet) serveHot(fp *simnet.Proc, t, row int, cols, pos []int, out []float64) error {
	mat := rs.mat
	m := mat.master
	cost := m.Cl.Cost
	store := rs.stores[t]
	if e := mat.ShardEpoch(t); e != store.epoch {
		// The serving machine was replaced; its replica memory died with it.
		store.epoch = e
		store.sets = map[copyKey]*copySet{}
		m.Replica.EpochFences++
	}
	// Single-flight: if another request is already revalidating this store
	// at this clock, wait for it — the barrier-synchronized herd overlaps
	// almost entirely, so followers usually serve locally afterwards.
	for store.inflight != nil && store.inflightClock == mat.clock {
		store.inflight.Wait(fp)
	}
	// Classify every owner's columns before any owner traffic, in owner
	// order for determinism.
	split := splitRuns(mat.Part, cols)
	reads := make([]copyRead, len(split.of))
	vals := arena.Floats(len(cols)) // the values, aligned with cols
	defer arena.PutFloats(vals)
	buf := split.buffer(vals) // each owner's values, in split order
	lead := false
	for o, idx := range split.of {
		if len(idx) == 0 {
			continue
		}
		set := store.sets[copyKey{row, o}]
		if set == nil || set.epoch != mat.ShardEpoch(o) {
			if set != nil {
				m.Replica.EpochFences++
			}
			set = &copySet{epoch: mat.ShardEpoch(o), vals: map[int]copyVal{}}
			store.sets[copyKey{row, o}] = set
		}
		reads[o] = classify(m, replicaPolicy, set, idx, mat.clock, split.vals(o, buf))
		m.Replica.LocalHits += uint64(len(idx) - reads[o].pending())
		lead = lead || reads[o].pending() > 0
	}
	if lead {
		// Lead a fetch: publish the in-flight signal so same-clock arrivals
		// wait instead of duplicating the owner round trips, and release
		// them on every exit path (an error just makes a follower lead).
		sig := fp.Sim().NewSignal()
		store.inflight, store.inflightClock = sig, mat.clock
		defer func() {
			sig.Fire()
			if store.inflight == sig {
				store.inflight = nil
			}
		}()
	}
	servingNode := mat.srv(t).Node
	for o := range split.of {
		r := reads[o]
		if need := r.pending(); need > 0 {
			osh, err := mat.LiveShard(o)
			if err != nil {
				return err // owner down: retry rides the enclosing CallShard loop
			}
			ownerSrv := mat.srv(o)
			if o != t {
				// Revalidation request to the owner: column ids plus one stamp.
				if err := m.send(fp, servingNode, ownerSrv.Node, cost.RequestOverheadB+4*float64(need)+8); err != nil {
					return err
				}
			}
			rep := r.read(osh, row)
			r.merge(rep, r.set, mat.clock)
			changed := len(rep.changed) + len(r.missing)
			if o != t {
				// Response ships only the values that actually changed.
				if err := m.send(fp, ownerSrv.Node, servingNode, cost.RequestOverheadB+12*float64(changed)); err != nil {
					return err
				}
				// The owner served a revalidation: account it in the
				// per-server load view.
				m.Load[ownerSrv.Index].Ops++
				m.Load[ownerSrv.Index].Bytes += 2*cost.RequestOverheadB + 4*float64(need) + 8 + 12*float64(changed)
			}
			if mat.ShardEpoch(o) != r.set.epoch || mat.ShardEpoch(t) != store.epoch {
				// A recovery landed mid-fetch: the stamps just merged may
				// alias the new incarnation's counters; the set is fenced on
				// retry.
				return fmt.Errorf("ps: replica fetch raced a recovery: %w", ErrServerDown)
			}
			m.Replica.OwnerFetches++
			m.Replica.ChangedVals += uint64(changed)
		}
	}
	split.restore(buf, vals)
	for k, v := range vals {
		out[pos[k]] = v
	}
	return nil
}

package ps

// HotReplicaSet is opt-in hot-parameter replication: the top-K hottest
// columns of a matrix (chosen by the caller from a sampled access profile)
// are replicated to every server, so client reads of hot columns can be
// served by ANY server instead of hammering the owner — NuPS-style hot-spot
// management layered on top of whatever placement the matrix uses.
//
// Consistency. Replicas are invalidated by writes through the existing
// per-element version stamps (versions.go): a replica copy remembers the
// owner's element version it was fetched at, and revalidates against the
// owner if-modified-since, shipping only values that actually changed.
// Freshness rides the matrix's model clock (Matrix.TickClock, serve.go),
// which trainers advance once per iteration after the optimizer step: under
// ClockBounded(s) a copy validated at clock c serves reads until clock c+s
// with no owner traffic at all. The default s=0 means "validated this clock",
// which in a BSP loop — replicated rows mutate only at the barrier, the
// trainer ticks the clock right after — makes replica reads bit-identical to
// owner reads: the first read of a clock revalidates every column against the
// owner's live value, and the row cannot change again until the next tick.
// s>0 trades the SSP bound for fewer owner round-trips, exactly the cache's
// contract.
//
// Load shedding. A hot read costs the client one RPC to a rotating serving
// server; the serving server answers from its replica store and only the
// first read after a tick (or a write) costs an owner round-trip that ships
// the changed values. N tasks re-reading the hot set each iteration thus pay
// the owner once per iteration instead of N times, and the client-side
// request/response bytes spread over all servers — the per-server Load
// counters show the difference.
//
// Fault tolerance. Replica state is fenced by recovery epochs on both ends:
// a serving server's store dies with its machine (epoch mismatch resets it),
// and a copy fetched from a pre-recovery owner incarnation is refetched
// (owner epoch rides each copy). The RPC itself is a CallShard, so it
// inherits retry/backoff/dedup wholesale.

import (
	"fmt"
	"sort"

	"repro/internal/consistency"
	"repro/internal/simnet"
)

// ReplicaConfig tunes a HotReplicaSet.
type ReplicaConfig struct {
	// HotCols lists the replicated columns, strictly increasing. Callers
	// typically pick the top-K of a sampled column-access profile (TopKCols).
	HotCols []int
	// Policy decides replica-copy freshness, like CacheConfig.Policy: nil
	// means consistency.ClockBounded(0), revalidate anything not validated
	// this clock (BSP-exact); delta-consuming policies serve copies on a
	// learned drift-rate estimate instead of age.
	Policy consistency.Policy
}

// ReplicaStats accumulates hot-replication counters on the Master.
type ReplicaStats struct {
	Reads        uint64 // hot-column values requested through the replica layer
	LocalHits    uint64 // of those, served from a fresh replica copy
	OwnerFetches uint64 // replica→owner revalidation round-trips
	ChangedVals  uint64 // values the owner actually shipped (the rest validated unchanged)
	EpochFences  uint64 // replica copies or stores discarded on a recovery epoch change
}

// repKey identifies one replicated element.
type repKey struct{ row, col int }

// repVal is one replica copy: the value, the owner element version and owner
// recovery epoch it was fetched under, and the clock it was last validated.
// rate is the per-clock drift EWMA learned from owner revalidations, used
// (and maintained) only under delta-consuming policies.
type repVal struct {
	val        float64
	ver        uint64
	ownerEpoch uint64
	clock      int64
	rate       float64
}

// replicaStore is one serving server's replica memory. epoch is the serving
// server's own recovery epoch: a bump means the machine (and the store with
// it) was replaced. inflight single-flights owner revalidation: concurrent
// same-clock requests at a barrier would otherwise each pay the owner round
// trip for the same stale copies (a thundering herd); instead followers wait
// for the leader's fetch and then serve locally.
type replicaStore struct {
	epoch         uint64
	vals          map[repKey]*repVal
	inflight      *simnet.Signal
	inflightClock int64
}

// HotReplicaSet serves reads of a chosen hot-column set from all servers.
// Like the CachedClient it is pure host-side bookkeeping: the only virtual
// charges are its RPCs.
type HotReplicaSet struct {
	mat    *Matrix
	cfg    ReplicaConfig
	pol    consistency.Policy
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
	if cfg.Policy == nil {
		cfg.Policy = consistency.NewClockBounded(0)
	}
	mat.EnableVersioning()
	mat.master.registerPolicy(cfg.Policy)
	rs := &HotReplicaSet{mat: mat, cfg: cfg, pol: cfg.Policy, hot: make(map[int]bool, len(cfg.HotCols))}
	for _, c := range cfg.HotCols {
		rs.hot[c] = true
	}
	rs.stores = make([]*replicaStore, mat.Part.NumServers())
	for s := range rs.stores {
		rs.stores[s] = &replicaStore{epoch: mat.ShardEpoch(s), vals: map[repKey]*repVal{}}
	}
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
// owner-routed path. Output is aligned with indices, like the raw operator.
func (rs *HotReplicaSet) PullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error) {
	return rs.pull(p, from, row, indices, rs.pol, ClassTrain)
}

// pull is PullRowIndices with an explicit consistency policy and
// admission class — the serving tier (ModelReader) reads through it so a
// per-request ReadOptions can tighten or relax the configured freshness and
// tag the traffic ClassServe.
func (rs *HotReplicaSet) pull(p *simnet.Proc, from *simnet.Node, row int, indices []int, pol consistency.Policy, class Class) ([]float64, error) {
	mat := rs.mat
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	if pol == nil {
		pol = rs.pol
	}
	mat.enterOp(p)
	defer mat.exitOp()
	rs.resync()
	out := make([]float64, len(indices))
	var hotCols, hotPos, coldCols, coldPos []int
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
			vals, err := mat.pullRowIndices(cp, from, row, coldCols, class)
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
			vals, err := rs.pullHot(cp, from, t, row, hotCols, pol, class)
			if err != nil {
				errHot = err
				return
			}
			for j, k := range hotPos {
				out[k] = vals[j]
			}
		})
	}
	g.Wait(p)
	if errHot != nil {
		return nil, errHot
	}
	if errCold != nil {
		return nil, errCold
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
	rs.stores = make([]*replicaStore, p)
	for s := range rs.stores {
		rs.stores[s] = &replicaStore{epoch: rs.mat.ShardEpoch(s), vals: map[repKey]*repVal{}}
	}
	rs.mat.master.Replica.EpochFences++
	rs.rr %= p
}

// pullHot serves one row's hot columns from serving shard t's replica store,
// fetching stale or missing copies from the owning shards.
func (rs *HotReplicaSet) pullHot(cp *simnet.Proc, from *simnet.Node, t, row int, cols []int, pol consistency.Policy, class Class) ([]float64, error) {
	mat := rs.mat
	m := mat.master
	cost := m.Cl.Cost
	vals := make([]float64, len(cols))
	err := mat.CallShard(cp, from, CallSpec{
		Name:      "replica-pull",
		Shard:     t,
		Class:     class,
		ReqBytes:  cost.RequestOverheadB + 4*float64(len(cols)),
		RespBytes: cost.RequestOverheadB + 8*float64(len(cols)),
		Fn: func(fp *simnet.Proc, sh *Shard) error {
			return rs.serveHot(fp, t, row, cols, vals, pol)
		},
	})
	if err != nil {
		return nil, err
	}
	m.Replica.Reads += uint64(len(cols))
	return vals, nil
}

// serveHot runs on the serving server: fresh copies answer locally, the rest
// are revalidated if-modified-since against their owners (one round-trip per
// owner shard that has stale columns). Retryable errors propagate to the
// enclosing CallShard loop.
func (rs *HotReplicaSet) serveHot(fp *simnet.Proc, t, row int, cols []int, vals []float64, pol consistency.Policy) error {
	mat := rs.mat
	m := mat.master
	cost := m.Cl.Cost
	deltas := pol.UsesDeltas()
	store := rs.stores[t]
	if e := mat.ShardEpoch(t); e != store.epoch {
		// The serving machine was replaced; its replica memory died with it.
		store.epoch = e
		store.vals = map[repKey]*repVal{}
		m.Replica.EpochFences++
	}
	// Single-flight: if another request is already revalidating this store
	// at this clock, wait for it — the barrier-synchronized herd overlaps
	// almost entirely, so followers usually serve locally afterwards.
	for store.inflight != nil && store.inflightClock == mat.clock {
		store.inflight.Wait(fp)
	}
	// Group columns needing owner traffic by owning shard, preserving the
	// (sorted) column order for determinism.
	needIdx := make(map[int][]int) // owner shard → positions into cols
	var owners []int
	for j, col := range cols {
		key := repKey{row: row, col: col}
		rv := store.vals[key]
		o := mat.Part.ServerOf(col)
		if rv != nil && rv.ownerEpoch == mat.ShardEpoch(o) {
			meta := consistency.Meta{CachedClock: rv.clock, CurrentClock: mat.clock, Version: rv.ver}
			if deltas {
				meta.Drift = consistency.DriftEstimate(rv.rate, mat.clock-rv.clock)
			}
			switch pol.Admit(meta) {
			case consistency.ServeCached:
				m.Consistency.ServedCached++
				vals[j] = rv.val
				m.Replica.LocalHits++
				continue
			case consistency.HardPull:
				// Can only fire when the policy weighs pushed deltas it thinks
				// doom a validation; drop the copy so the owner fetch below
				// ships the value outright.
				m.Consistency.HardPulled++
				delete(store.vals, key)
			default:
				m.Consistency.Revalidated++
			}
		} else if rv != nil {
			delete(store.vals, key)
			m.Replica.EpochFences++
		}
		if needIdx[o] == nil {
			owners = append(owners, o)
		}
		needIdx[o] = append(needIdx[o], j)
	}
	sort.Ints(owners)
	if len(owners) > 0 {
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
	for _, o := range owners {
		idx := needIdx[o]
		ownerEpoch := mat.ShardEpoch(o)
		osh, err := mat.LiveShard(o)
		if err != nil {
			return err // owner down: retry rides the enclosing CallShard loop
		}
		ownerSrv := mat.srv(o)
		changed := 0
		if o != t {
			// Revalidation request to the owner: column ids plus one stamp.
			if err := m.send(fp, servingNode, ownerSrv.Node, cost.RequestOverheadB+4*float64(len(idx))+8); err != nil {
				return err
			}
		}
		for _, j := range idx {
			col := cols[j]
			key := repKey{row: row, col: col}
			rv := store.vals[key]
			ver := osh.ElemVer(row, col)
			if rv == nil || rv.ver != ver {
				changed++
				nv := &repVal{}
				nv.val = osh.Rows[row][osh.Local(col)]
				nv.ver = ver
				if deltas {
					nv.rate = consistency.UnknownRate()
					if rv != nil {
						nv.rate = consistency.BlendRate(rv.rate, nv.val-rv.val, mat.clock-rv.clock)
					}
				}
				store.vals[key] = nv
				rv = nv
			} else if deltas {
				// Validated unchanged: a zero-magnitude observation decays the
				// learned drift rate.
				rv.rate = consistency.BlendRate(rv.rate, 0, mat.clock-rv.clock)
			}
			rv.ownerEpoch = ownerEpoch
			rv.clock = mat.clock
			vals[j] = rv.val
		}
		if o != t {
			// Response ships only the values that actually changed.
			if err := m.send(fp, ownerSrv.Node, servingNode, cost.RequestOverheadB+12*float64(changed)); err != nil {
				return err
			}
			// The owner served a revalidation: account it in the per-server
			// load view.
			m.Load[ownerSrv.Index].Ops++
			m.Load[ownerSrv.Index].Bytes += 2*cost.RequestOverheadB + 4*float64(len(idx)) + 8 + 12*float64(changed)
		}
		if mat.ShardEpoch(o) != ownerEpoch || mat.ShardEpoch(t) != store.epoch {
			// A recovery landed mid-fetch; the stamps we just recorded may
			// alias the new incarnation's counters.
			return fmt.Errorf("ps: replica fetch raced a recovery: %w", ErrServerDown)
		}
		m.Replica.OwnerFetches++
		m.Replica.ChangedVals += uint64(changed)
	}
	return nil
}

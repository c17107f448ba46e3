package ps

// CachedClient is the worker-side parameter cache: a pull-through cache of
// row ranges and sparse index sets, kept per executor machine, in front of a
// matrix's pull operators.
//
// Validity rule. Every cached value carries the shard version stamp it was
// read at and the worker clock at which it was last known current. Whether a
// value may be served locally is decided by the client's consistency.Policy
// (CacheConfig.Policy): a ClockBounded(s) policy serves values at most s
// clocks old with no RPC at all. The default, ClockBounded(0), means "synced
// this clock", which in a BSP loop (the model is frozen between barriers, the
// driver ticks the clock once per iteration) is exact — the run's arithmetic
// is bit-identical to the uncached client's. s>0 lets values ride for s more
// clocks, the same bounded-staleness contract as the SSP clock (ssp.go):
// async workers tick their own machine's clock via TickNode next to
// SSPClock.Tick.
//
// Value-bounded policies. A ValueBounded (or Adaptive) policy ignores age
// and serves a value until the accumulated |delta| against it plausibly
// exceeds a bound. The client tracks two delta signals per cached value:
// pend, the exact magnitude of locally-flushed pushes since the last
// validation (credited by PushBuffer flushes and trainer CreditPush calls),
// and rate, an EWMA of remote change magnitude per clock learned from past
// revalidations (seeded "unknown", which forces revalidation until the
// first observation). When local pushes alone bust the bound the value is
// hard-pulled — refetched like a missing entry, skipping the stamp bytes a
// doomed validation would pay. On the dense row path the server goes one
// step further: versions.go tracks the exact accumulated per-row drift, so
// a validation in delta mode ships a changed row only when its true drift
// since the client's watermark exceeds the bound, and merely certifies it
// otherwise (value-bounded consistency enforced server-side). All delta
// accounting is gated on Policy.UsesDeltas(), so clock-bounded runs do no
// extra work and stay bit-identical to the pre-policy implementation.
//
// If-modified-since. Values outside the bound are not refetched: the client
// sends their indices plus the version stamps they were read at, and the
// server compares against its per-element stamps (versions.go) and responds
// with only the values that actually changed — an unchanged validation costs
// request framing, 4 bytes per index and one 16-byte stamp per version
// group, with an overhead-only response. On Zipf-skewed sparse workloads the
// hot indices are pulled every iteration but only a fraction change, which
// is where the bytes go.
//
// Coherence with self-healing. Entries are tagged with the recovery epoch of
// the shard's physical server (ShardEpoch). RecoverServer bumps the epoch
// when it fences the crashed machine, which invalidates every entry filled
// under the old incarnation — the restored shard resets its version
// counters, so stamp comparison alone would alias. The epoch is re-checked
// after every cache RPC returns: a recovery that lands mid-call discards the
// call's verdicts and the loop revalidates against the new incarnation.
//
// Capacity. Entries are LRU-chained per machine and evicted when the
// configured byte capacity is exceeded; an entry costs 12 bytes per cached
// sparse value or 8 per dense element, mirroring the wire cost model.
//
// All cache state is host-side: hits cost zero virtual time and bytes, and
// the only virtual charges are the validation/fetch RPCs themselves.

import (
	"math"
	"sort"

	"repro/internal/arena"
	"repro/internal/consistency"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// CacheConfig tunes a CachedClient.
type CacheConfig struct {
	// Policy decides per cached value whether it is served locally,
	// revalidated if-modified-since, or refetched outright. nil means
	// consistency.ClockBounded(0): validate anything not synced this clock
	// (BSP-exact); ClockBounded(s) serves a value synced at clock c until
	// clock c+s. Pair delta-consuming policies (consistency.ValueBounded,
	// consistency.Adaptive) with CombinePushes or trainer CreditPush calls so
	// local write magnitudes are credited.
	Policy consistency.Policy
	// CapacityBytes bounds the cached bytes per executor machine (LRU
	// eviction); <= 0 means unbounded.
	CapacityBytes float64
	// CombinePushes routes the trainer's gradient pushes through a
	// write-combining PushBuffer flushed at the clock tick (combiner.go).
	// Combining regroups the floating-point summation of concurrent
	// contributions, so leave it off when staleness-0 bit-identity with the
	// uncached client is required; the embedding trainer always combines
	// (it needs the buffer for read-your-writes).
	CombinePushes bool
}

// sparseColBytes is the cached-bytes charge per sparse value, matching the
// cost model's per-sparse-entry wire size.
const sparseColBytes = 12

// cacheKey identifies one entry: a (row, logical shard) pair in sparse
// (index-set) or dense (full row range) form.
type cacheKey struct {
	row, shard int
	dense      bool
}

// cachedVal is one sparse cached value: the value, the shard version it was
// read at, and the worker clock at which it was last known current. The two
// delta fields stay zero (and cost nothing) under clock-bounded policies:
// pend is the accumulated |delta| of locally-flushed pushes since the last
// validation, rate the per-clock drift EWMA learned from revalidations.
type cachedVal struct {
	val   float64
	ver   uint64
	clock int64
	pend  float64
	rate  float64
}

// cacheEntry is one LRU-chained cache line.
type cacheEntry struct {
	key        cacheKey
	epoch      uint64
	bytes      float64
	prev, next *cacheEntry

	// Sparse form: per-column values with individual stamps.
	vals map[int]cachedVal

	// Dense form: the shard's full [Lo,Hi) stretch of the row, with one
	// stamp for the whole stretch.
	dense      []float64
	denseVer   uint64
	denseClock int64

	// Dense-form delta accounting (delta-consuming policies only):
	// densePend/denseRate mirror cachedVal.pend/rate at row granularity;
	// denseDrift and denseDriftGen anchor the server's exact cumulative
	// row-drift watermark (versions.go) at the point the cached copy was
	// shipped, which lets the server certify a validation — "changed, but
	// within your bound" — instead of shipping the row.
	densePend     float64
	denseRate     float64
	denseDrift    float64
	denseDriftGen uint64
}

// nodeCache is the per-executor-machine cache: entries keyed by (row, shard,
// form), an LRU list (root.next = most recent), a byte budget, and the
// worker clock.
type nodeCache struct {
	clock   int64
	entries map[cacheKey]*cacheEntry
	root    cacheEntry
	bytes   float64
}

func newNodeCache() *nodeCache {
	nc := &nodeCache{entries: map[cacheKey]*cacheEntry{}}
	nc.root.prev = &nc.root
	nc.root.next = &nc.root
	return nc
}

func (nc *nodeCache) get(k cacheKey) *cacheEntry { return nc.entries[k] }

// insert links a fresh empty entry at the MRU position.
func (nc *nodeCache) insert(k cacheKey, epoch uint64) *cacheEntry {
	e := &cacheEntry{key: k, epoch: epoch}
	if k.dense {
		e.dense = nil
	} else {
		e.vals = map[int]cachedVal{}
	}
	nc.entries[k] = e
	e.prev = &nc.root
	e.next = nc.root.next
	e.prev.next = e
	e.next.prev = e
	return e
}

// touch moves an entry to the MRU position.
func (nc *nodeCache) touch(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev = &nc.root
	e.next = nc.root.next
	e.prev.next = e
	e.next.prev = e
}

// remove unlinks and forgets an entry (fencing or eviction).
func (nc *nodeCache) remove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	delete(nc.entries, e.key)
	nc.bytes -= e.bytes
}

// put stores one sparse value, refusing to regress a concurrently refreshed
// stamp (two tasks on one machine can pull overlapping index sets).
func (nc *nodeCache) put(e *cacheEntry, col int, cv cachedVal) {
	if old, ok := e.vals[col]; ok {
		if old.ver > cv.ver || (old.ver == cv.ver && old.clock >= cv.clock) {
			return
		}
	} else {
		e.bytes += sparseColBytes
		nc.bytes += sparseColBytes
	}
	e.vals[col] = cv
}

// evict drops LRU entries until the byte budget holds.
func (nc *nodeCache) evict(capacity float64, stats *obs.CacheSnapshot) {
	if capacity <= 0 {
		return
	}
	for nc.bytes > capacity {
		victim := nc.root.prev
		if victim == &nc.root {
			return
		}
		nc.remove(victim)
		stats.Evictions++
	}
}

// CachedClient fronts one matrix's pull operators with per-machine caches.
// Its methods mirror the Matrix operators (same signatures, same error
// contract) and are safe for any number of concurrent simulated tasks: all
// cache bookkeeping happens in host-atomic sections between scheduler yield
// points.
type CachedClient struct {
	mat    *Matrix
	cfg    CacheConfig
	pol    consistency.Policy
	deltas bool // pol.UsesDeltas(): gate for all delta accounting
	nodes  map[*simnet.Node]*nodeCache
}

// NewCachedClient attaches a cache to mat, enabling server-side version
// stamps. Multiple clients (and PushBuffers) may share one master's
// CacheStats; each machine gets its own entries and clock.
func NewCachedClient(mat *Matrix, cfg CacheConfig) *CachedClient {
	if cfg.Policy == nil {
		cfg.Policy = consistency.NewClockBounded(0)
	}
	mat.EnableVersioning()
	mat.master.registerPolicy(cfg.Policy)
	return &CachedClient{
		mat:    mat,
		cfg:    cfg,
		pol:    cfg.Policy,
		deltas: cfg.Policy.UsesDeltas(),
		nodes:  map[*simnet.Node]*nodeCache{},
	}
}

// Policy returns the consistency policy governing this client's decisions.
func (cc *CachedClient) Policy() consistency.Policy { return cc.pol }

func (cc *CachedClient) node(n *simnet.Node) *nodeCache {
	nc := cc.nodes[n]
	if nc == nil {
		nc = newNodeCache()
		cc.nodes[n] = nc
	}
	return nc
}

// Tick advances every machine's worker clock by one — the BSP driver calls
// it once per iteration, after the optimizer step, so "synced this clock"
// means "read since the model last changed".
func (cc *CachedClient) Tick() {
	for _, nc := range cc.nodes {
		nc.clock++
	}
}

// TickNode advances one machine's clock — SSP workers call it next to
// SSPClock.Tick, so cache staleness rides the same clock as the SSP bound.
func (cc *CachedClient) TickNode(n *simnet.Node) {
	cc.node(n).clock++
}

// CreditPush records locally-issued write magnitudes against one row's
// cached values on machine from, and feeds the policy's magnitude EWMA.
// Trainers that push outside a PushBuffer call it next to their push (the
// write-combining buffer credits automatically at flush). No-op unless the
// attached policy consumes deltas, so clock-bounded runs pay nothing.
// mags aligns with indices; magnitudes are taken absolute. Host-side only.
func (cc *CachedClient) CreditPush(from *simnet.Node, row int, indices []int, mags []float64) {
	if !cc.deltas || len(indices) == 0 {
		return
	}
	nc := cc.node(from)
	var sum, maxMag float64
	for i, col := range indices {
		mag := math.Abs(mags[i])
		sum += mag
		if mag > maxMag {
			maxMag = mag
		}
		s := cc.mat.Part.ServerOf(col)
		if e := nc.get(cacheKey{row: row, shard: s}); e != nil {
			if cv, ok := e.vals[col]; ok {
				cv.pend += mag
				e.vals[col] = cv
			}
		}
	}
	// Dense entries track one pend per row stretch; the per-call max is a
	// conservative stand-in for the per-shard max (errs toward revalidating).
	for s := 0; s < cc.mat.Part.NumServers(); s++ {
		if e := nc.get(cacheKey{row: row, shard: s, dense: true}); e != nil && e.dense != nil {
			e.densePend += maxMag
		}
	}
	cc.pol.ObserveDelta(sum / float64(len(indices)))
}

// PullRowIndices is the cached sparse pull: values within the staleness
// bound are served locally; the rest are validated if-modified-since or
// fetched, one coalesced RPC per shard that has work to do.
func (cc *CachedClient) PullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error) {
	mat := cc.mat
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	mat.enterOp(p)
	defer mat.exitOp()
	nc := cc.node(from)
	out := make([]float64, len(indices))
	split := mat.Part.SplitIndices(indices)
	err := mat.fanOut(p, "cache-pull", func(s int) shardBody {
		idx := split[s]
		if len(idx) == 0 {
			return nil
		}
		return func(cp *simnet.Proc) error {
			// Fill a shard-local buffer, then scatter to each column's global
			// position: non-contiguous placements interleave server groups in
			// the sorted request, so the groups do not concatenate in order.
			// The buffer comes from the arena — this runs once per shard per
			// pull, millions of times per training run.
			sub := arena.Floats(len(idx))
			err := cc.pullIndicesShard(cp, from, nc, row, s, idx, sub)
			for k, col := range idx {
				out[sort.SearchInts(indices, col)] = sub[k]
			}
			arena.PutFloats(sub)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pullIndicesShard serves one shard's slice of a sparse pull: classify every
// index as fresh / stale-cached / missing, serve fresh ones locally, and
// resolve the rest with one validation+fetch RPC.
func (cc *CachedClient) pullIndicesShard(cp *simnet.Proc, from *simnet.Node, nc *nodeCache,
	row, s int, idx []int, out []float64) error {
	m := cc.mat.master
	cost := m.Cl.Cost
	// What the uncached sparse pull would have paid for this shard.
	m.Cache.BaselineBytes += 2*cost.RequestOverheadB + 12*float64(len(idx))
	key := cacheKey{row: row, shard: s}
	for {
		epoch := cc.mat.ShardEpoch(s)
		e := nc.get(key)
		if e != nil && e.epoch != epoch {
			nc.remove(e)
			m.Cache.EpochFences++
			e = nil
		}
		var stale, stalePos, missing, missPos []int
		var hardOld map[int]cachedVal
		for k, col := range idx {
			if e != nil {
				if cv, ok := e.vals[col]; ok {
					meta := consistency.Meta{CachedClock: cv.clock, CurrentClock: nc.clock, Version: cv.ver}
					if cc.deltas {
						meta.Pushed = cv.pend
						meta.Drift = consistency.DriftEstimate(cv.rate, nc.clock-cv.clock)
					}
					switch cc.pol.Admit(meta) {
					case consistency.ServeCached:
						m.Consistency.ServedCached++
						out[k] = cv.val
					case consistency.HardPull:
						// Local pushes alone bust the bound: a validation stamp
						// could never match, so refetch like a miss and skip the
						// stamp bytes. Keep the old value for drift-rate learning.
						m.Consistency.HardPulled++
						if hardOld == nil {
							hardOld = map[int]cachedVal{}
						}
						hardOld[col] = cv
						missing = append(missing, col)
						missPos = append(missPos, k)
					default:
						m.Consistency.Revalidated++
						stale = append(stale, col)
						stalePos = append(stalePos, k)
					}
					continue
				}
			}
			missing = append(missing, col)
			missPos = append(missPos, k)
		}
		if len(stale) == 0 && len(missing) == 0 {
			m.Cache.Hits++
			nc.touch(e)
			return nil
		}
		// Validation request: the indices plus one 16-byte (version, count)
		// stamp per distinct stored version among them.
		verGroups := map[uint64]struct{}{}
		for _, col := range stale {
			verGroups[e.vals[col].ver] = struct{}{}
		}
		reqBytes := cost.RequestOverheadB + 4*float64(len(stale)+len(missing)) + 16*float64(len(verGroups))
		var stamp uint64
		changed := map[int]float64{}
		missVal := make([]float64, len(missing))
		err := cc.mat.CallShard(cp, from, CallSpec{
			Name:     "cache-pull",
			Shard:    s,
			ReqBytes: reqBytes,
			// An unchanged validation responds with framing only; changed
			// values ship as sparse (index, value) pairs, missing ones as
			// plain values aligned with the request.
			RespBytesFn: func(*Shard) float64 {
				return cost.RequestOverheadB + 12*float64(len(changed)) + 8*float64(len(missing))
			},
			Fn: func(_ *simnet.Proc, sh *Shard) error {
				stamp = sh.Ver()
				for col := range changed { // idempotent under retry
					delete(changed, col)
				}
				for _, col := range stale {
					if sh.ElemVer(row, col) > e.vals[col].ver {
						changed[col] = sh.Rows[row][sh.Local(col)]
					}
				}
				for j, col := range missing {
					missVal[j] = sh.Rows[row][sh.Local(col)]
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		if cc.mat.ShardEpoch(s) != epoch {
			// The server recovered while the call was in flight: the restored
			// shard's stamps restart, so the verdicts are meaningless. Fence
			// and redo against the new incarnation.
			if cur := nc.get(key); cur != nil {
				nc.remove(cur)
			}
			m.Cache.EpochFences++
			continue
		}
		m.Cache.Misses++
		m.Cache.Validations += uint64(len(stale))
		m.Cache.ValidationHits += uint64(len(stale) - len(changed))
		m.Cache.PulledBytes += reqBytes + cost.RequestOverheadB + 12*float64(len(changed)) + 8*float64(len(missing))
		// Merge into whatever entry is cached NOW (a concurrent task may
		// have evicted or refreshed it while this call was blocked), then
		// serve from the call's own results.
		cur := nc.get(key)
		if cur == nil {
			cur = nc.insert(key, epoch)
		}
		for j, col := range stale {
			v, ok := changed[col]
			if !ok {
				v = e.vals[col].val // validated unchanged: still current as of stamp
			}
			out[stalePos[j]] = v
			nv := cachedVal{val: v, ver: stamp, clock: nc.clock}
			if cc.deltas {
				old := e.vals[col]
				nv.rate = consistency.BlendRate(old.rate, v-old.val, nc.clock-old.clock)
			}
			nc.put(cur, col, nv)
		}
		for j, col := range missing {
			out[missPos[j]] = missVal[j]
			nv := cachedVal{val: missVal[j], ver: stamp, clock: nc.clock}
			if cc.deltas {
				nv.rate = consistency.UnknownRate()
				if old, ok := hardOld[col]; ok {
					// Hard-pulled: the old value is known; observe the change.
					nv.rate = consistency.BlendRate(old.rate, missVal[j]-old.val, nc.clock-old.clock)
				}
			}
			nc.put(cur, col, nv)
		}
		nc.touch(cur)
		nc.evict(cc.cfg.CapacityBytes, &m.Cache)
		return nil
	}
}

// PullRows is the cached batched full-row pull (the embedding access
// pattern): whole per-shard row stretches are cached with one stamp each and
// validated if-modified-since at row granularity.
func (cc *CachedClient) PullRows(p *simnet.Proc, from *simnet.Node, rows []int) ([][]float64, error) {
	mat := cc.mat
	for _, r := range rows {
		mat.checkRow(r)
	}
	mat.enterOp(p)
	defer mat.exitOp()
	nc := cc.node(from)
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, mat.Dim)
	}
	err := mat.fanOut(p, "cache-pull-rows", func(s int) shardBody {
		return func(cp *simnet.Proc) error { return cc.pullRowsShard(cp, from, nc, rows, s, out) }
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pullRowsShard serves one shard's stretch of a batched row pull.
func (cc *CachedClient) pullRowsShard(cp *simnet.Proc, from *simnet.Node, nc *nodeCache,
	rows []int, s int, out [][]float64) error {
	m := cc.mat.master
	cost := m.Cl.Cost
	v := cc.mat.Part.View(s)
	width := v.Width()
	m.Cache.BaselineBytes += 2*cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*width)
	// Unique rows in first-appearance order; duplicates are served from the
	// same fetch (the uncached operator ships them twice).
	uniq := make([]int, 0, len(rows))
	seen := map[int]bool{}
	for _, r := range rows {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	for {
		epoch := cc.mat.ShardEpoch(s)
		var stale, missing []int
		staleVer := map[int]uint64{}
		rowVals := map[int][]float64{}
		var staleDrift map[int]float64
		var staleGen map[int]uint64
		if cc.deltas {
			staleDrift = map[int]float64{}
			staleGen = map[int]uint64{}
		}
		for _, r := range uniq {
			e := nc.get(cacheKey{row: r, shard: s, dense: true})
			if e != nil && e.epoch != epoch {
				nc.remove(e)
				m.Cache.EpochFences++
				e = nil
			}
			if e == nil || e.dense == nil {
				missing = append(missing, r)
				continue
			}
			meta := consistency.Meta{CachedClock: e.denseClock, CurrentClock: nc.clock, Version: e.denseVer}
			if cc.deltas {
				meta.Pushed = e.densePend
				meta.Drift = consistency.DriftEstimate(e.denseRate, nc.clock-e.denseClock)
			}
			switch cc.pol.Admit(meta) {
			case consistency.ServeCached:
				m.Consistency.ServedCached++
				rowVals[r] = e.dense
				nc.touch(e)
			case consistency.HardPull:
				// Local pushes alone bust the bound: skip the stamp and
				// watermark bytes, refetch like a miss. The live entry stays
				// put; merge observes the change against it after the call.
				m.Consistency.HardPulled++
				missing = append(missing, r)
			default:
				m.Consistency.Revalidated++
				stale = append(stale, r)
				staleVer[r] = e.denseVer
				if cc.deltas {
					staleDrift[r] = e.denseDrift
					staleGen[r] = e.denseDriftGen
				}
				rowVals[r] = e.dense // replaced wholesale on refresh, safe to hold
			}
		}
		if len(stale) == 0 && len(missing) == 0 {
			m.Cache.Hits++
			for i, r := range rows {
				v.Scatter(rowVals[r], out[i])
			}
			return nil
		}
		// Request: 4 bytes per row id, plus an 8-byte stamp per validated row.
		reqBytes := cost.RequestOverheadB + 4*float64(len(stale)+len(missing)) + 8*float64(len(stale))
		if cc.deltas && len(stale) > 0 {
			// Value-bounded validation also ships each stale row's drift
			// watermark plus the bound, so the server can certify rows whose
			// true drift stays within it instead of shipping them.
			reqBytes += 8*float64(len(stale)) + 8
		}
		var stamp uint64
		fetched := map[int][]float64{}
		var valDrift map[int]float64
		var valGen uint64
		if cc.deltas {
			valDrift = map[int]float64{}
		}
		err := cc.mat.CallShard(cp, from, CallSpec{
			Name:     "cache-pull-rows",
			Shard:    s,
			ReqBytes: reqBytes,
			RespBytesFn: func(*Shard) float64 {
				b := cost.RequestOverheadB + 8*float64(len(fetched)*width)
				if cc.deltas {
					// Fresh drift watermarks ride back for every requested row.
					b += 8 * float64(len(stale)+len(missing))
				}
				return b
			},
			Fn: func(_ *simnet.Proc, sh *Shard) error {
				stamp = sh.Ver()
				for r := range fetched { // idempotent under retry
					delete(fetched, r)
				}
				for _, r := range stale {
					if sh.RowVer(r) <= staleVer[r] {
						continue // unchanged since the client's stamp
					}
					if cc.deltas && sh.DriftGen() == staleGen[r] {
						// The row changed, but versions.go knows its exact
						// cumulative drift: certify instead of shipping when
						// the change since the client's value-anchor watermark
						// stays within the policy's bound.
						if cc.pol.Admit(consistency.Meta{Drift: sh.RowDrift(r) - staleDrift[r]}) == consistency.ServeCached {
							continue
						}
					}
					fetched[r] = append([]float64(nil), sh.Rows[r]...)
				}
				for _, r := range missing {
					fetched[r] = append([]float64(nil), sh.Rows[r]...)
				}
				if cc.deltas {
					for r := range valDrift { // idempotent under retry
						delete(valDrift, r)
					}
					for _, r := range stale {
						valDrift[r] = sh.RowDrift(r)
					}
					for _, r := range missing {
						valDrift[r] = sh.RowDrift(r)
					}
					valGen = sh.DriftGen()
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		if cc.mat.ShardEpoch(s) != epoch {
			for _, r := range uniq {
				if cur := nc.get(cacheKey{row: r, shard: s, dense: true}); cur != nil {
					nc.remove(cur)
				}
			}
			m.Cache.EpochFences++
			continue
		}
		m.Cache.Misses++
		m.Cache.Validations += uint64(len(stale))
		m.Cache.ValidationHits += uint64(len(stale) - (len(fetched) - len(missing)))
		m.Cache.PulledBytes += reqBytes + cost.RequestOverheadB + 8*float64(len(fetched)*width)
		if cc.deltas {
			m.Cache.PulledBytes += 8 * float64(len(stale)+len(missing))
		}
		merge := func(r int, vals []float64, shipped bool) {
			key := cacheKey{row: r, shard: s, dense: true}
			cur := nc.get(key)
			if cur == nil {
				cur = nc.insert(key, epoch)
			}
			if cur.dense != nil && (cur.denseVer > stamp || (cur.denseVer == stamp && cur.denseClock >= nc.clock)) {
				rowVals[r] = cur.dense // a concurrent task refreshed it further
				return
			}
			if cur.dense == nil {
				cur.bytes += 8 * float64(width)
				nc.bytes += 8 * float64(width)
			}
			if cc.deltas {
				if shipped {
					// Observe the change magnitude for the drift-rate EWMA,
					// then re-anchor at the watermark the value was shipped at.
					if cur.dense != nil {
						var maxAbs float64
						for i := range vals {
							d := vals[i] - cur.dense[i]
							if d < 0 {
								d = -d
							}
							if d > maxAbs {
								maxAbs = d
							}
						}
						cur.denseRate = consistency.BlendRate(cur.denseRate, maxAbs, nc.clock-cur.denseClock)
					} else {
						cur.denseRate = consistency.UnknownRate()
					}
					cur.denseDrift = valDrift[r]
					cur.denseDriftGen = valGen
				} else {
					// Unchanged or server-certified: the held value stands, so
					// its drift anchor must stand too — re-anchoring at the
					// current watermark would let certified chunks accumulate
					// past the bound unseen. The exact drift-so-far is still
					// an observation for the rate EWMA.
					if valGen == staleGen[r] {
						cur.denseRate = consistency.BlendRate(cur.denseRate, valDrift[r]-staleDrift[r], nc.clock-cur.denseClock)
						cur.denseDrift = staleDrift[r]
						cur.denseDriftGen = staleGen[r]
					} else {
						cur.denseDrift = valDrift[r]
						cur.denseDriftGen = valGen
					}
				}
				// Any owner contact resets the local-push tally.
				cur.densePend = 0
			}
			cur.dense = vals
			cur.denseVer = stamp
			cur.denseClock = nc.clock
			rowVals[r] = vals
			nc.touch(cur)
		}
		for _, r := range stale {
			if vals, ok := fetched[r]; ok {
				merge(r, vals, true)
			} else {
				merge(r, rowVals[r], false) // validated unchanged: restamp the cached copy
			}
		}
		for _, r := range missing {
			merge(r, fetched[r], true)
		}
		nc.evict(cc.cfg.CapacityBytes, &m.Cache)
		for i, r := range rows {
			v.Scatter(rowVals[r], out[i])
		}
		return nil
	}
}

package ps

// CachedClient is the worker-side parameter cache: a pull-through cache of
// row ranges and sparse index sets, kept per executor machine, in front of a
// matrix's pull operators. Its sparse form is the copy store (copies.go) on
// each machine, which states the validity rule, drift learning,
// if-modified-since and the epoch fence; this file adds the machine's worker
// clock, the LRU byte budget, the dense row form and the pull's wire bytes.
//
// Clock. Freshness is judged against a per-machine worker clock. The BSP
// driver ticks every machine once per iteration (Tick); async workers tick
// their own machine's clock via TickNode next to SSPClock.Tick, so cache
// staleness rides the same clock as the SSP bound (ssp.go).
//
// Dense rows. PullRows caches a shard's whole [Lo,Hi) stretch of a row under
// one stamp, validated at row granularity. Under a delta-consuming policy the
// server goes one step further: versions.go tracks each row's exact
// accumulated drift, so a validation ships a changed row only when its true
// drift since the client's watermark exceeds the bound, and merely certifies
// it otherwise (value-bounded consistency enforced server-side).
//
// Bytes. An unchanged sparse validation costs request framing, 4 bytes per
// index and one 16-byte stamp per version group, with an overhead-only
// response.
//
// Capacity. Entries are LRU-chained per machine and evicted when the
// configured byte capacity is exceeded; an entry costs 12 bytes per cached
// sparse value or 8 per dense element, mirroring the wire cost model.
//
// All cache state is host-side: hits cost zero virtual time and bytes, and
// the only virtual charges are the validation/fetch RPCs themselves.

import (
	"math"

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

// cacheKey identifies one entry: a copy set in sparse (index-set) form, or
// the dense form's full row range of the same (row, logical shard).
type cacheKey struct {
	copyKey
	dense bool
}

// cacheEntry is one LRU-chained cache line: a copy set, or the dense form's
// stretch of a row under one header.
type cacheEntry struct {
	copySet
	key        cacheKey
	bytes      float64
	prev, next *cacheEntry
	dense      []float64
	stretch    stretchHdr
}

// stretchHdr is a dense stretch's header: one copy's stamp, clock, pend and
// rate for the whole stretch (its val is unused), and the server's exact
// cumulative row-drift watermark (versions.go) with its generation at the
// point the stretch was shipped, which lets the server certify a validation
// — "changed, but within your bound" — instead of shipping the row.
type stretchHdr struct {
	copyVal
	driftMark
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

// live returns k's entry, fencing one filled under an owner epoch other than
// epoch.
func (nc *nodeCache) live(k cacheKey, epoch uint64, stats *obs.CacheSnapshot) *cacheEntry {
	e := nc.entries[k]
	if e != nil && e.epoch != epoch {
		nc.remove(e)
		stats.EpochFences++
		return nil
	}
	return e
}

// entry returns k's entry, linking a fresh empty one filled under epoch at
// the MRU position if there is none.
func (nc *nodeCache) entry(k cacheKey, epoch uint64) *cacheEntry {
	if e := nc.entries[k]; e != nil {
		return e
	}
	e := &cacheEntry{key: k, copySet: copySet{epoch: epoch}}
	if !k.dense {
		e.vals = map[int]copyVal{}
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
	deltas bool // cfg.Policy.UsesDeltas(): gate for all delta accounting
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
		deltas: cfg.Policy.UsesDeltas(),
		nodes:  map[*simnet.Node]*nodeCache{},
	}
}

// Policy returns the consistency policy governing this client's decisions.
func (cc *CachedClient) Policy() consistency.Policy { return cc.cfg.Policy }

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
		maxMag = math.Max(maxMag, mag)
		cc.credit(nc, row, col, mag)
	}
	// Dense entries track one pend per row stretch; the per-call max is a
	// conservative stand-in for the per-shard max (errs toward revalidating).
	cc.creditStretches(nc, row, maxMag)
	cc.cfg.Policy.ObserveDelta(sum / float64(len(indices)))
}

// credit adds mag to the pend of machine nc's copy of (row, col), reporting
// whether one is held.
func (cc *CachedClient) credit(nc *nodeCache, row, col int, mag float64) bool {
	e := nc.get(cacheKey{copyKey: copyKey{row, cc.mat.Part.ServerOf(col)}})
	return e != nil && e.credit(col, mag)
}

// creditStretches adds mag to the pend of every dense stretch of row held on
// machine nc, reporting whether there is one.
func (cc *CachedClient) creditStretches(nc *nodeCache, row int, mag float64) bool {
	credited := false
	for s := 0; s < cc.mat.Part.NumServers(); s++ {
		if e := nc.get(cacheKey{copyKey{row, s}, true}); e != nil && e.dense != nil {
			e.stretch.pend += mag
			credited = true
		}
	}
	return credited
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
	err := mat.fanOutProcs(p, "cache-pull", func(s int) shardBody {
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
			at := cursor{all: indices}
			for k, col := range idx {
				out[at.pos(col)] = sub[k]
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

// pullIndicesShard serves one shard's slice of a sparse pull: the copy set
// serves what the policy admits, and one validation+fetch RPC resolves the
// rest.
func (cc *CachedClient) pullIndicesShard(cp *simnet.Proc, from *simnet.Node, nc *nodeCache,
	row, s int, idx []int, out []float64) error {
	m := cc.mat.master
	cost := m.Cl.Cost
	// What the uncached sparse pull would have paid for this shard.
	m.Cache.BaselineBytes += 2*cost.RequestOverheadB + 12*float64(len(idx))
	key := cacheKey{copyKey: copyKey{row, s}}
	for {
		epoch := cc.mat.ShardEpoch(s)
		e := nc.live(key, epoch, &m.Cache)
		var set *copySet
		if e != nil {
			set = &e.copySet
		}
		r := classify(m, cc.cfg.Policy, set, idx, nc.clock, out)
		if r.pending() == 0 {
			m.Cache.Hits++
			nc.touch(e)
			return nil
		}
		// Validation request: the indices plus one 16-byte (version, count)
		// stamp per distinct stored version among them.
		verGroups := map[uint64]struct{}{}
		for _, k := range r.stale {
			verGroups[set.vals[idx[k]].ver] = struct{}{}
		}
		reqBytes := cost.RequestOverheadB + 4*float64(r.pending()) + 16*float64(len(verGroups))
		var rep copyReply
		err := cc.mat.CallShard(cp, from, CallSpec{
			Name:     "cache-pull",
			Shard:    s,
			ReqBytes: reqBytes,
			// An unchanged validation responds with framing only; changed
			// values ship as sparse (index, value) pairs, missing ones as
			// plain values aligned with the request.
			RespBytesFn: func(*Shard) float64 {
				return cost.RequestOverheadB + 12*float64(len(rep.changed)) + 8*float64(len(r.missing))
			},
			Fn: func(_ int, sh *Shard) error {
				rep = r.read(sh, row)
				return nil
			},
		})
		if err != nil {
			return err
		}
		if cc.mat.ShardEpoch(s) != epoch {
			// A recovery landed mid-call: the restored shard's stamps
			// restart, so fence and redo against the new incarnation.
			if cur := nc.get(key); cur != nil {
				nc.remove(cur)
			}
			m.Cache.EpochFences++
			continue
		}
		m.Cache.Misses++
		m.Cache.Validations += uint64(len(r.stale))
		m.Cache.ValidationHits += uint64(len(r.stale) - len(rep.changed))
		m.Cache.PulledBytes += reqBytes + cost.RequestOverheadB + 12*float64(len(rep.changed)) + 8*float64(len(r.missing))
		cur := nc.entry(key, epoch)
		n := len(cur.vals)
		r.merge(rep, &cur.copySet, nc.clock)
		cur.bytes += sparseColBytes * float64(len(cur.vals)-n)
		nc.bytes += sparseColBytes * float64(len(cur.vals)-n)
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
	err := mat.fanOutProcs(p, "cache-pull-rows", func(s int) shardBody {
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
		held := map[int]stretchHdr{} // each stale row's header, as classified
		rowVals := map[int][]float64{}
		for _, r := range uniq {
			e := nc.live(cacheKey{copyKey{r, s}, true}, epoch, &m.Cache)
			if e == nil || e.dense == nil {
				missing = append(missing, r)
				continue
			}
			switch admit(m, cc.cfg.Policy, cc.deltas, e.stretch.copyVal, nc.clock) {
			case consistency.ServeCached:
				rowVals[r] = e.dense
				nc.touch(e)
			case consistency.HardPull:
				// Local pushes alone bust the bound: skip the stamp and
				// watermark bytes, refetch like a miss. The live entry stays
				// put; merge observes the change against it after the call.
				missing = append(missing, r)
			default:
				stale = append(stale, r)
				held[r] = e.stretch
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
		var stamp, valGen uint64
		fetched := map[int][]float64{}
		var valDrift map[int]float64
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
			Fn: func(_ int, sh *Shard) error {
				stamp = sh.Ver()
				clear(fetched) // idempotent under retry
				for _, r := range stale {
					if sh.RowVer(r) <= held[r].ver {
						continue // unchanged since the client's stamp
					}
					// The row changed, but versions.go knows its exact
					// cumulative drift: certify instead of shipping when the
					// change since the client's value-anchor watermark stays
					// within the policy's bound.
					if cc.deltas && sh.DriftGen() == held[r].gen && certified(cc.cfg.Policy, sh.RowDrift(r)-held[r].drift) {
						continue
					}
					fetched[r] = append([]float64(nil), sh.Rows[r]...)
				}
				for _, r := range missing {
					fetched[r] = append([]float64(nil), sh.Rows[r]...)
				}
				if cc.deltas {
					clear(valDrift)
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
				if cur := nc.get(cacheKey{copyKey{r, s}, true}); cur != nil {
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
			cur := nc.entry(cacheKey{copyKey{r, s}, true}, epoch)
			if cur.dense != nil && (cur.stretch.ver > stamp || (cur.stretch.ver == stamp && cur.stretch.clock >= nc.clock)) {
				rowVals[r] = cur.dense // a concurrent task refreshed it further
				return
			}
			if cur.dense == nil {
				cur.bytes += 8 * float64(width)
				nc.bytes += 8 * float64(width)
			}
			if cc.deltas {
				if !shipped && valGen == held[r].gen {
					// Unchanged or server-certified: the held value stands, so
					// its drift anchor must stand too — re-anchoring at the
					// current watermark would let certified chunks accumulate
					// past the bound unseen. The exact drift-so-far is still
					// an observation for the rate EWMA.
					cur.stretch.rate = consistency.BlendRate(cur.stretch.rate, valDrift[r]-held[r].drift, nc.clock-cur.stretch.clock)
					cur.stretch.drift, cur.stretch.gen = held[r].drift, held[r].gen
				} else {
					// Observe a shipped row's change magnitude for the
					// drift-rate EWMA, then re-anchor at the watermark read.
					if shipped && cur.dense == nil {
						cur.stretch.rate = consistency.UnknownRate()
					} else if shipped {
						var maxAbs float64
						for i := range vals {
							if d := math.Abs(vals[i] - cur.dense[i]); d > maxAbs {
								maxAbs = d
							}
						}
						cur.stretch.rate = consistency.BlendRate(cur.stretch.rate, maxAbs, nc.clock-cur.stretch.clock)
					}
					cur.stretch.drift, cur.stretch.gen = valDrift[r], valGen
				}
				// Any owner contact resets the local-push tally.
				cur.stretch.pend = 0
			}
			cur.dense = vals
			cur.stretch.ver = stamp
			cur.stretch.clock = nc.clock
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

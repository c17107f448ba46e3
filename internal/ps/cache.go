package ps

// CachedClient is the worker-side parameter cache: a pull-through cache of
// row ranges and sparse index sets, kept per executor machine, in front of a
// matrix's pull operators. Its sparse form is the copy store (copies.go) on
// each machine, which states the validity rule, drift learning,
// if-modified-since and the epoch fence; this file adds the client's clock,
// the LRU byte budget, the dense row form and the pull's wire bytes.
//
// Clock. Freshness is judged against one clock per client, which the BSP
// driver ticks once per iteration (Tick). CacheConfig.Policy is the cache's
// one freshness knob; SSP training (ssp.go) reads through no cache.
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

// driftMark is an owner's exact cumulative drift watermark on a row
// (versions.go) and the drift generation it belongs to.
type driftMark struct {
	drift float64
	gen   uint64
}

// nodeCache is the per-executor-machine cache: entries keyed by (row, shard,
// form), an LRU list (root.next = most recent) and a byte budget.
type nodeCache struct {
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
	clock  int64
	nodes  map[*simnet.Node]*nodeCache
}

// NewCachedClient attaches a cache to mat, enabling server-side version
// stamps. Multiple clients (and PushBuffers) may share one master's
// CacheStats; each machine gets its own entries.
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

// Tick advances the client's clock by one — the BSP driver calls it once per
// iteration, after the optimizer step, so "synced this clock" means "read
// since the model last changed".
func (cc *CachedClient) Tick() { cc.clock++ }

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
// fetched, one coalesced call per shard that has work to do. It assembles
// into out or a fresh buffer, as Matrix.PullRowIndices does.
func (cc *CachedClient) PullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64) ([]float64, error) {
	mat := cc.mat
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	out = sparseOut(out, len(indices))
	mat.enterOp(p)
	defer mat.exitOp()
	m, nc := mat.master, cc.node(from)
	cost := m.Cl.Cost
	// Each shard reads into its run's stretch of one buffer in split order:
	// out itself, unless the placement interleaves servers in the request.
	split := splitRuns(mat.Part, indices)
	buf := split.buffer(out)
	shards := make([]shardRead, len(split.of))
	for s, idx := range split.of {
		if len(idx) > 0 {
			// What the uncached sparse pull would have paid for this shard.
			m.Cache.BaselineBytes += 2*cost.RequestOverheadB + 12*float64(len(idx))
		}
		shards[s] = shardRead{read: copyRead{idx: idx, out: split.vals(s, buf)}, todo: len(idx) > 0}
	}
	// plan serves what shard s's copy set may serve and makes c the
	// validation+fetch call for the rest, if any.
	plan := func(s int, c *CallSpec) bool {
		sp := &shards[s]
		if !sp.todo {
			return false
		}
		sp.todo = false
		sp.epoch = mat.ShardEpoch(s)
		e := nc.live(cacheKey{copyKey: copyKey{row, s}}, sp.epoch, &m.Cache)
		var set *copySet
		if e != nil {
			set = &e.copySet
		}
		sp.read = classify(m, cc.cfg.Policy, set, sp.read.idx, cc.clock, sp.read.out)
		if sp.read.pending() == 0 {
			m.Cache.Hits++
			nc.touch(e)
			return false
		}
		// Validation request: the indices plus one 16-byte (version, count)
		// stamp per distinct stored version among them.
		verGroups := map[uint64]struct{}{}
		for _, k := range sp.read.stale {
			verGroups[set.vals[sp.read.idx[k]].ver] = struct{}{}
		}
		c.ReqBytes = cost.RequestOverheadB + 4*float64(sp.read.pending()) + 16*float64(len(verGroups))
		c.RespBytesFn = sp.respBytes
		return true
	}
	todo := true // a shard is still to be read
	spec := CallSpec{
		Name: "cache-pull",
		// An unchanged validation responds with framing only; changed values
		// ship as sparse (index, value) pairs, missing ones as plain values
		// aligned with the request.
		Fn: func(s int, sh *Shard) error {
			sp := &shards[s]
			sp.rep = sp.read.read(sh, row)
			sp.resp = cost.RequestOverheadB + 12*float64(len(sp.rep.changed)) + 8*float64(len(sp.read.missing))
			return nil
		},
		delivered: func(c *CallSpec) {
			sp := &shards[c.Shard]
			key := cacheKey{copyKey: copyKey{row, c.Shard}}
			if mat.ShardEpoch(c.Shard) != sp.epoch {
				// A recovery landed mid-call: the restored shard's stamps
				// restart, so fence and read it again from the new
				// incarnation.
				if cur := nc.get(key); cur != nil {
					nc.remove(cur)
				}
				m.Cache.EpochFences++
				sp.todo, todo = true, true
				return
			}
			m.Cache.Misses++
			m.Cache.Validations += uint64(len(sp.read.stale))
			m.Cache.ValidationHits += uint64(len(sp.read.stale) - len(sp.rep.changed))
			m.Cache.PulledBytes += c.ReqBytes + sp.resp
			cur := nc.entry(key, sp.epoch)
			n := len(cur.vals)
			sp.read.merge(sp.rep, &cur.copySet, cc.clock)
			cur.bytes += sparseColBytes * float64(len(cur.vals)-n)
			nc.bytes += sparseColBytes * float64(len(cur.vals)-n)
			nc.touch(cur)
			nc.evict(cc.cfg.CapacityBytes, &m.Cache)
		},
	}
	var err error
	for err == nil && todo {
		todo = false
		err = mat.fanOut(p, from, spec, plan)
	}
	if err != nil {
		return nil, err
	}
	split.restore(buf, out)
	return out, nil
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
	m, nc := mat.master, cc.node(from)
	cost := m.Cl.Cost
	// Unique rows in first-appearance order, and each row's position among
	// them; duplicates are served from the same fetch (the uncached operator
	// ships them twice).
	uniq, pos := make([]int, 0, len(rows)), make(map[int]int, len(rows))
	out := make([][]float64, len(rows))
	for i, r := range rows {
		if _, ok := pos[r]; !ok {
			pos[r] = len(uniq)
			uniq = append(uniq, r)
		}
		out[i] = make([]float64, mat.Dim)
	}
	shards := make([]shardRead, mat.Part.NumServers())
	// vals[s*len(uniq)+j] is shard s's stretch of row uniq[j] as served,
	// validated or fetched.
	vals := make([][]float64, len(shards)*len(uniq))
	for s := range shards {
		m.Cache.BaselineBytes += 2*cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*mat.Part.Width(s))
		shards[s].todo = true
	}
	scatter := func(s int) {
		v := mat.Part.View(s)
		for i, r := range rows {
			v.Scatter(vals[s*len(uniq)+pos[r]], out[i])
		}
	}
	// plan serves what shard s's stretches may serve and makes c the
	// validation+fetch call for the rest, if any.
	plan := func(s int, c *CallSpec) bool {
		sp := &shards[s]
		if !sp.todo {
			return false
		}
		*sp = shardRead{epoch: mat.ShardEpoch(s)}
		var stale, missing []int
		for j, r := range uniq {
			e := nc.live(cacheKey{copyKey{r, s}, true}, sp.epoch, &m.Cache)
			if e == nil || e.dense == nil {
				missing = append(missing, j)
				continue
			}
			switch admit(m, cc.cfg.Policy, cc.deltas, e.stretch.copyVal, cc.clock) {
			case consistency.ServeCached:
				vals[s*len(uniq)+j] = e.dense
				nc.touch(e)
			case consistency.HardPull:
				// Local pushes alone bust the bound: skip the stamp and
				// watermark bytes, refetch like a miss. The live entry stays
				// put; merge observes the change against it after the call.
				missing = append(missing, j)
			default:
				stale = append(stale, j)
				sp.held = append(sp.held, e.stretch)
				vals[s*len(uniq)+j] = e.dense // replaced wholesale on refresh, safe to hold
			}
		}
		sp.rows, sp.stale = append(stale, missing...), len(stale)
		if len(sp.rows) == 0 {
			m.Cache.Hits++
			scatter(s)
			return false
		}
		// Request: 4 bytes per row id, plus an 8-byte stamp per validated row.
		c.ReqBytes = cost.RequestOverheadB + 4*float64(len(sp.rows)) + 8*float64(sp.stale)
		if cc.deltas && sp.stale > 0 {
			// Value-bounded validation also ships each stale row's drift
			// watermark plus the bound, so the server can certify rows whose
			// true drift stays within it instead of shipping them.
			c.ReqBytes += 8*float64(sp.stale) + 8
		}
		sp.fetched = make([][]float64, len(sp.rows))
		if cc.deltas {
			sp.drift = make([]float64, len(sp.rows))
		}
		c.RespBytesFn = sp.respBytes
		return true
	}
	todo := true // a shard is still to be read
	spec := CallSpec{
		Name: "cache-pull-rows",
		Fn: func(s int, sh *Shard) error {
			sp := &shards[s]
			sp.stamp, sp.shipped = sh.Ver(), 0 // idempotent under retry
			for k, j := range sp.rows {
				r := uniq[j]
				sp.fetched[k] = nil
				if cc.deltas {
					sp.drift[k] = sh.RowDrift(r)
				}
				if k < sp.stale {
					if sh.RowVer(r) <= sp.held[k].ver {
						continue // unchanged since the client's stamp
					}
					// The row changed, but versions.go knows its exact
					// cumulative drift: certify instead of shipping when the
					// change since the client's value-anchor watermark stays
					// within the policy's bound.
					if cc.deltas && sh.DriftGen() == sp.held[k].gen && certified(cc.cfg.Policy, sh.RowDrift(r)-sp.held[k].drift) {
						continue
					}
				}
				// A copy, never nil (even zero-wide): nil marks a row not
				// shipped.
				sp.fetched[k] = append(make([]float64, 0, len(sh.Rows[r])), sh.Rows[r]...)
				sp.shipped++
			}
			sp.gen = sh.DriftGen()
			sp.resp = cost.RequestOverheadB + 8*float64(sp.shipped*mat.Part.Width(s))
			if cc.deltas {
				// Fresh drift watermarks ride back for every requested row.
				sp.resp += 8 * float64(len(sp.rows))
			}
			return nil
		},
		delivered: func(c *CallSpec) {
			s := c.Shard
			sp := &shards[s]
			if mat.ShardEpoch(s) != sp.epoch {
				for _, r := range uniq {
					if cur := nc.get(cacheKey{copyKey{r, s}, true}); cur != nil {
						nc.remove(cur)
					}
				}
				m.Cache.EpochFences++
				sp.todo, todo = true, true
				return
			}
			m.Cache.Misses++
			m.Cache.Validations += uint64(sp.stale)
			m.Cache.ValidationHits += uint64(sp.stale - (sp.shipped - (len(sp.rows) - sp.stale)))
			m.Cache.PulledBytes += c.ReqBytes + sp.resp
			width := mat.Part.Width(s)
			for k, j := range sp.rows {
				// A stale row not shipped was validated unchanged or
				// certified: restamp the cached copy.
				v, shipped := vals[s*len(uniq)+j], sp.fetched[k] != nil
				if shipped {
					v = sp.fetched[k]
				}
				cur := nc.entry(cacheKey{copyKey{uniq[j], s}, true}, sp.epoch)
				if cur.dense != nil && (cur.stretch.ver > sp.stamp || (cur.stretch.ver == sp.stamp && cur.stretch.clock >= cc.clock)) {
					vals[s*len(uniq)+j] = cur.dense // a concurrent task refreshed it further
					continue
				}
				if cur.dense == nil {
					cur.bytes += 8 * float64(width)
					nc.bytes += 8 * float64(width)
				}
				if cc.deltas {
					if !shipped && sp.gen == sp.held[k].gen {
						// Unchanged or server-certified: the held value
						// stands, so its drift anchor must stand too —
						// re-anchoring at the current watermark would let
						// certified chunks accumulate past the bound unseen.
						// The exact drift-so-far is still an observation for
						// the rate EWMA.
						cur.stretch.rate = consistency.BlendRate(cur.stretch.rate, sp.drift[k]-sp.held[k].drift, cc.clock-cur.stretch.clock)
						cur.stretch.driftMark = sp.held[k].driftMark
					} else {
						// Observe a shipped row's change magnitude for the
						// drift-rate EWMA, then re-anchor at the watermark
						// read.
						if shipped && cur.dense == nil {
							cur.stretch.rate = consistency.UnknownRate()
						} else if shipped {
							var maxAbs float64
							for i := range v {
								if d := math.Abs(v[i] - cur.dense[i]); d > maxAbs {
									maxAbs = d
								}
							}
							cur.stretch.rate = consistency.BlendRate(cur.stretch.rate, maxAbs, cc.clock-cur.stretch.clock)
						}
						cur.stretch.driftMark = driftMark{sp.drift[k], sp.gen}
					}
					// Any owner contact resets the local-push tally.
					cur.stretch.pend = 0
				}
				cur.dense = v
				cur.stretch.ver = sp.stamp
				cur.stretch.clock = cc.clock
				vals[s*len(uniq)+j] = v
				nc.touch(cur)
			}
			nc.evict(cc.cfg.CapacityBytes, &m.Cache)
			scatter(s)
		},
	}
	var err error
	for err == nil && todo {
		todo = false
		err = mat.fanOut(p, from, spec, plan)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// shardRead is one shard's part of a cached pull, in the sparse form or the
// dense one: what the call asks the owner, and the reply.
type shardRead struct {
	epoch uint64  // the owner epoch the shard was classified under
	todo  bool    // the shard is still to be read
	resp  float64 // the call's response bytes

	// Sparse: the read against the copy set and the owner's reply.
	read copyRead
	rep  copyReply

	// Dense: the rows the call validates (the first stale of them) and
	// fetches, as positions into the pull's unique rows; each stale row's
	// header as classified; and the reply, aligned with rows: each row
	// shipped (nil: not shipped) and, under a delta-consuming policy, its
	// drift watermark, of generation gen, all at the owner's stamp.
	rows       []int
	stale      int
	held       []stretchHdr
	fetched    [][]float64
	drift      []float64
	shipped    int
	stamp, gen uint64
}

func (sp *shardRead) respBytes(*Shard) float64 { return sp.resp }

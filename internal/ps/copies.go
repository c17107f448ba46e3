package ps

// The copy store: the one implementation of a versioned copy of server values
// held away from its owner shard. Two layers keep such copies — the worker
// cache (cache.go) on each executor machine and hot-column replicas
// (replica.go) on every server — and both decide here. The one freshness
// knob is the worker cache's CacheConfig.Policy; replicas, and the
// ModelReader reads served from them, always run ClockBounded(0), exact as of
// the model clock.
//
// Validity. Every copy carries the owner's shard version stamp it was read at
// and the clock at which it was last known current. Whether a copy may be
// served is the consistency.Policy's verdict (admit): ClockBounded(s) serves a
// copy validated at clock c until clock c+s with no RPC at all. The default
// s=0 means "validated this clock", which in a BSP loop (the model is frozen
// between barriers and the clock ticks once per iteration) is exact: reads are
// bit-identical to the owner's.
//
// Drift learning. A delta-consuming policy (ValueBounded, Adaptive), which
// only the worker cache runs, ignores age and serves a copy until the
// accumulated |delta| against it plausibly exceeds a bound. A copy tracks two
// delta signals: pend, the exact magnitude of writes its holder knows of
// since the copy's last validation, and rate, an EWMA of other change per
// clock learned at revalidation (merge), seeded unknown, which forces
// revalidation until the first observation. A worker knows its own flushed
// pushes (credit). When known writes alone bust the bound the copy is
// hard-pulled: refetched like a missing one, skipping the stamp bytes a
// doomed validation would pay, with its old value kept for rate learning.
// Delta accounting is gated on Policy.UsesDeltas(), so clock-bounded runs do
// no extra work.
//
// If-modified-since. A copy outside the bound is not refetched: the reader
// sends its column and stamp, and the owner (read) ships only the columns
// whose element version (versions.go) is newer than the stamp. On skewed
// workloads hot columns are read every clock but only a fraction change,
// which is where the bytes go.
//
// Epoch fence. Copies live in sets, one per (row, owner shard), tagged with
// the owner's recovery epoch (ShardEpoch) they were filled under. A recovery
// restarts the restored shard's version counters, so stamps alone would
// alias: a set whose epoch no longer matches is discarded whole, and a read
// that raced an epoch change is retried against the new incarnation.
//
// All of it is host-side bookkeeping: the only virtual charges are the
// adaptors' own messages.

import "repro/internal/consistency"

// copyVal is one copy: the value, the owner stamp it was read at, the clock
// at which it was last known current, and its two delta signals (zero, and
// free, under clock-bounded policies).
type copyVal struct {
	val   float64
	ver   uint64
	clock int64
	pend  float64
	rate  float64
}

// copyKey names a copy set: one row's columns owned by one logical shard.
type copyKey struct{ row, shard int }

// copySet is the copies of one row held from one owner shard, fenced as a
// unit by the owner epoch they were filled under.
type copySet struct {
	epoch uint64
	vals  map[int]copyVal
}

// admit asks pol whether cv may be served at clock now and counts the
// verdict in the master's consistency stats; deltas is pol.UsesDeltas().
func admit(m *Master, pol consistency.Policy, deltas bool, cv copyVal, now int64) consistency.Decision {
	meta := consistency.Meta{CachedClock: cv.clock, CurrentClock: now}
	if deltas {
		meta.Pushed = cv.pend
		meta.Drift = consistency.DriftEstimate(cv.rate, now-cv.clock)
	}
	d := pol.Admit(meta)
	switch d {
	case consistency.ServeCached:
		m.Consistency.ServedCached++
	case consistency.HardPull:
		m.Consistency.HardPulled++
	default:
		m.Consistency.Revalidated++
	}
	return d
}

// certified reports whether an owner may certify a changed copy instead of
// shipping it: its exact drift since the copy was shipped is within pol's
// bound.
func certified(pol consistency.Policy, drift float64) bool {
	return pol.Admit(consistency.Meta{Drift: drift}) == consistency.ServeCached
}

// credit adds a write magnitude to the pend of col's copy, reporting whether
// the set holds one.
func (s *copySet) credit(col int, mag float64) bool {
	cv, ok := s.vals[col]
	if ok {
		cv.pend += mag
		s.vals[col] = cv
	}
	return ok
}

// copyRead is one read of a row's columns against one copy set: classify
// serves what the policy admits and sorts the rest into stale (revalidate)
// and missing (fetch); the adaptor carries read to the owner; merge folds the
// reply back. Its methods take values, so an adaptor's call closure copies
// the read and a read served from copies allocates nothing.
type copyRead struct {
	set            *copySet
	idx            []int           // requested columns, ascending
	out            []float64       // the values read, aligned with idx
	stale, missing []int           // positions into idx
	old            map[int]copyVal // hard-pulled copies by column, for rate learning
	deltas         bool
}

// copyReply is the owner's answer to a copyRead: its shard version, the
// stale columns that changed, and the missing values aligned with missing.
type copyReply struct {
	stamp   uint64
	changed map[int]float64
	fetched []float64
}

// classify admits each of idx's copies in set (nil: none held) at clock now,
// serving admitted ones into out.
func classify(m *Master, pol consistency.Policy, set *copySet, idx []int, now int64, out []float64) copyRead {
	r := copyRead{set: set, idx: idx, out: out, deltas: pol.UsesDeltas()}
	for k, col := range idx {
		cv, ok := copyVal{}, false
		if set != nil {
			cv, ok = set.vals[col]
		}
		if !ok {
			r.missing = append(r.missing, k)
			continue
		}
		switch admit(m, pol, r.deltas, cv, now) {
		case consistency.ServeCached:
			out[k] = cv.val
		case consistency.HardPull:
			if r.old == nil {
				r.old = map[int]copyVal{}
			}
			r.old[col] = cv
			r.missing = append(r.missing, k)
		default:
			r.stale = append(r.stale, k)
		}
	}
	return r
}

// pending reports how many columns need the owner.
func (r copyRead) pending() int { return len(r.stale) + len(r.missing) }

// read is the owner side of the read: stamp with the owner's shard version,
// ship each stale column whose element changed since its copy's stamp, and
// every missing one.
func (r copyRead) read(sh *Shard, row int) copyReply {
	rep := copyReply{stamp: sh.ver, changed: map[int]float64{}, fetched: make([]float64, len(r.missing))}
	for _, k := range r.stale {
		col := r.idx[k]
		if l := sh.Local(col); sh.elemVer[row][l] > r.set.vals[col].ver {
			rep.changed[col] = sh.at(row, l)
		}
	}
	for j, k := range r.missing {
		rep.fetched[j] = sh.at(row, sh.Local(r.idx[k]))
	}
	return rep
}

// merge serves the owner's reply into out and stores it in dst, the set held
// now (a concurrent reader may have replaced or refreshed the classified
// one), at clock now, refusing to regress a copy a concurrent reader stored
// at a later stamp or clock. Each copy's rate learns from its change since it
// was last current; a fetched column with no old copy starts unknown.
func (r copyRead) merge(rep copyReply, dst *copySet, now int64) {
	keep := func(k int, v float64, old copyVal, seen bool) {
		r.out[k] = v
		nv := copyVal{val: v, ver: rep.stamp, clock: now}
		if r.deltas {
			nv.rate = consistency.UnknownRate()
			if seen {
				nv.rate = consistency.BlendRate(old.rate, v-old.val, now-old.clock)
			}
		}
		if cur, ok := dst.vals[r.idx[k]]; !ok || cur.ver < nv.ver || (cur.ver == nv.ver && cur.clock < nv.clock) {
			dst.vals[r.idx[k]] = nv
		}
	}
	for _, k := range r.stale {
		old := r.set.vals[r.idx[k]]
		v, ok := rep.changed[r.idx[k]]
		if !ok {
			v = old.val // validated unchanged: still current as of the stamp
		}
		keep(k, v, old, true)
	}
	for j, k := range r.missing {
		old, ok := r.old[r.idx[k]]
		keep(k, rep.fetched[j], old, ok)
	}
}

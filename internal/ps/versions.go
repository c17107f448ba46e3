package ps

// This file is the server-side bookkeeping behind the worker-side parameter
// cache (cache.go) and the dirty-row delta checkpoints (server.go):
//
//   - every live shard carries per-row dirty flags, set whenever a mutating
//     RPC lands on the row, so delta checkpoints can skip rows that are
//     guaranteed unchanged instead of scanning every element;
//   - when a matrix has versioning enabled (a CachedClient was attached), the
//     shard additionally stamps every changed element and row with a
//     monotonically increasing shard version, the "last-modified" side of the
//     cache's if-modified-since validation;
//   - the master keeps one epoch per physical server, bumped when a
//     replacement machine is fenced in by RecoverServer. Cache entries are
//     tagged with the epoch they were filled under; an epoch mismatch fences
//     them, so no read served from cache can cross a recovery (a restored
//     shard resets its version counters, which would otherwise alias).
//
// All of this is host-side metadata: it adds no virtual bytes, work, or time
// to the simulation, so uncached runs and the obs cost gates see zero drift.
// The wire cost of using the versions is charged by the cache's own RPCs.

// enableVersions allocates the shard's per-row and per-element version
// stamps. Idempotent; called when a matrix gains its first CachedClient and
// on shards installed by recovery for an already-versioned matrix.
func (sh *Shard) enableVersions() {
	if sh.rowVer != nil {
		return
	}
	sh.rowVer = make([]uint64, len(sh.Rows))
	sh.elemVer = make([][]uint64, len(sh.Rows))
	for r := range sh.elemVer {
		sh.elemVer[r] = make([]uint64, sh.Width())
	}
	sh.rowDrift = make([]float64, len(sh.Rows))
}

// Ver returns the shard's current version stamp: the version of the most
// recent mutation that changed at least one element. Zero until versioning is
// enabled.
func (sh *Shard) Ver() uint64 { return sh.ver }

// RowVer returns the version of the last change to row r (0 = unchanged
// since versioning was enabled).
func (sh *Shard) RowVer(r int) uint64 {
	if sh.rowVer == nil {
		return 0
	}
	return sh.rowVer[r]
}

// ElemVer returns the version of the last change to element (r, col), with
// col an absolute column index the shard owns.
func (sh *Shard) ElemVer(r, col int) uint64 {
	if sh.elemVer == nil {
		return 0
	}
	return sh.elemVer[r][sh.Local(col)]
}

// RowDrift returns row r's cumulative drift watermark: the running sum of
// each declared mutation's max-|delta| on the row since versioning was
// enabled. Monotone non-decreasing within one DriftGen, so the drift a row
// accumulated between two points in time is the difference of the watermarks
// — the exact quantity value-bounded cache validation certifies against.
// Exact because mutating RPCs declare their rows (dcv DirtyRows) and
// commitMutate diffs pre-images; undeclared mutations fall to touchAll,
// which bumps DriftGen instead of faking a magnitude.
func (sh *Shard) RowDrift(r int) float64 {
	if sh.rowDrift == nil {
		return 0
	}
	return sh.rowDrift[r]
}

// DriftGen returns the shard's drift generation. touchAll (an undeclared
// mutation — unknown magnitude) bumps it and resets the watermarks; a client
// holding an anchor from an older generation cannot difference watermarks
// and must treat the row as changed.
func (sh *Shard) DriftGen() uint64 { return sh.driftGen }

// preMutate snapshots the declared rows' values so commitMutate can stamp
// exactly the elements the handler changed. Returns nil (snapshot-free) when
// the shard is unversioned or the mutation is undeclared — commitMutate then
// falls back to conservative marking.
func (sh *Shard) preMutate(rows []int) [][]float64 {
	if sh.elemVer == nil || rows == nil {
		return nil
	}
	snap := make([][]float64, len(rows))
	for i, r := range rows {
		snap[i] = append([]float64(nil), sh.Rows[r]...)
	}
	return snap
}

// commitMutate records the effects of a mutating handler that declared the
// given rows (nil = undeclared, touch everything). Dirty flags are always
// maintained; version stamps only when the shard is versioned, by diffing
// against the preMutate snapshot so writes that recompute the same value
// don't invalidate cache entries.
func (sh *Shard) commitMutate(rows []int, snap [][]float64) {
	if rows == nil {
		sh.touchAll()
		return
	}
	if sh.elemVer == nil {
		for _, r := range rows {
			sh.dirty[r] = true
		}
		return
	}
	var v uint64
	for i, r := range rows {
		old, cur := snap[i], sh.Rows[r]
		rowChanged := false
		var maxAbs float64
		for c := range cur {
			if cur[c] != old[c] {
				if v == 0 {
					sh.ver++
					v = sh.ver
				}
				if len(sh.snaps) > 0 {
					// An active ModelSnapshot pin (serve.go): preserve the
					// pre-image before the stamp moves past the pin's version.
					sh.preserve(r, c, old[c])
				}
				if d := cur[c] - old[c]; d > maxAbs {
					maxAbs = d
				} else if -d > maxAbs {
					maxAbs = -d
				}
				sh.elemVer[r][c] = v
				rowChanged = true
			}
		}
		if rowChanged {
			sh.rowVer[r] = v
			sh.dirty[r] = true
			sh.rowDrift[r] += maxAbs
		}
	}
}

// touchAll conservatively marks every row dirty and (when versioned) every
// element changed — the fallback for mutations that don't declare the rows
// they write.
func (sh *Shard) touchAll() {
	for r := range sh.dirty {
		sh.dirty[r] = true
	}
	// An undeclared mutation has no pre-images to preserve, so active
	// ModelSnapshot pins can no longer reconstruct their pinned values:
	// fence them rather than risk a torn read (serve.go).
	sh.invalidateSnaps()
	if sh.elemVer == nil {
		return
	}
	sh.ver++
	v := sh.ver
	for r := range sh.elemVer {
		sh.rowVer[r] = v
		ev := sh.elemVer[r]
		for c := range ev {
			ev[c] = v
		}
	}
	// The mutation's magnitude is unknown: a new drift generation (rather
	// than an invented watermark bump) tells clients their anchors are void.
	sh.driftGen++
	for r := range sh.rowDrift {
		sh.rowDrift[r] = 0
	}
}

// clearDirty resets the dirty flags, called when a checkpoint snapshot is
// taken so the next delta ships only rows mutated since.
func (sh *Shard) clearDirty() {
	for r := range sh.dirty {
		sh.dirty[r] = false
	}
}

// EnableVersioning turns on per-element version stamps for every live shard
// of the matrix. Attaching a CachedClient calls this; it is idempotent and
// purely host-side.
func (mat *Matrix) EnableVersioning() {
	if mat.versioned {
		return
	}
	mat.versioned = true
	for s := 0; s < len(mat.master.servers); s++ {
		if sh, ok := mat.master.servers[s].shards[mat.ID]; ok {
			sh.enableVersions()
		}
	}
}

// ShardEpoch returns the fencing epoch of logical shard s: the recovery
// epoch of the physical server hosting it, mixed with the matrix's placement
// generation. The server epoch is bumped when RecoverServer fences the old
// machine; the generation is bumped when MigrateMatrix swaps the placement —
// either event invalidates cache entries and replica stores stamped under
// the old value (a restored shard restarts its version counters, and after a
// migration the same logical index names different columns).
func (mat *Matrix) ShardEpoch(s int) uint64 {
	return mat.gen<<32 | mat.master.epochs[(s+mat.Offset)%mat.Part.NumServers()]
}

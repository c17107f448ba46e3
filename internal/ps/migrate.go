package ps

// This file is the elastic-membership layer: servers join and leave a running
// job, and MigrateMatrix moves a matrix onto a new placement while training
// continues. The protocol leans on machinery earlier PRs built for recovery:
//
//   - per-server recovery epochs (versions.go) detect a crash of a migration
//     endpoint — any epoch change between the start of the bulk copy and the
//     cutover aborts the migration with host state untouched;
//   - per-element version stamps (versions.go) make the copy incremental: the
//     bulk phase streams whole shards with training still running, then the
//     cutover ships only the elements mutated since, so the gate is closed
//     for the small delta, not the full matrix;
//   - the matrix's placement generation (Matrix.gen) is mixed into ShardEpoch,
//     so the routing swap fences every CachedClient entry and HotReplicaSet
//     store exactly like a server recovery would.
//
// Exactly-once across the cutover: all mutating operators register with the
// route gate, the cutover drains them before swapping, and an abort never
// installs staged state — so a push is applied either to the old owner (and
// carried over by bulk+delta copy) or to the new owner, never both. The
// request-ID dedup watermark (rpc.go) is unaffected by the swap, which is
// what the chaos tests assert with DedupSettled.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrBadMigration is returned (wrapped) when a membership or migration
// request is structurally invalid: wrong column count, zero or too many
// target servers, a zero-width target shard, or removing servers a placement
// still spans. It is the migration-layer sibling of ErrBadIndices.
var ErrBadMigration = errors.New("ps: bad migration")

// ErrStaleMigration is returned (wrapped) when the caller's expected
// placement fingerprint no longer matches the matrix — someone else migrated
// it first. Callers re-profile and retry, compare-and-swap style.
var ErrStaleMigration = errors.New("ps: stale migration fingerprint")

// ErrMigrationAborted is returned (wrapped) when a migration observed a
// fault — an endpoint crashed or was recovered mid-transfer — and rolled
// back. The matrix still serves under its old placement; the caller may
// retry once the cluster is healthy.
var ErrMigrationAborted = errors.New("ps: migration aborted")

// DedupSettled reports whether every mutating request ever issued has fully
// settled: no request is outstanding and the acknowledgement watermark has
// caught up. Chaos tests use it as the exactly-once oracle — after a run
// settles, the single-server replay and the migrated matrix must agree.
func (m *Master) DedupSettled() bool { return m.ledger.Settled() }

// ---------------------------------------------------------------------------
// Route gate
//
// Top-level operators (client.go pulls/pushes, cache fills, combined-push
// flushes, replica pulls, and CallShards for the dcv column operators)
// bracket themselves with enterOp/exitOp. The cutover closes the gate, waits
// for active operators to drain, swaps the placement in one host instant, and
// reopens. When the gate is open, entering costs no yield, event, or virtual
// time — non-elastic runs are bit-identical to before.

func (mat *Matrix) enterOp(p *simnet.Proc) {
	for mat.gateClosed {
		mat.gateReopen.Wait(p)
	}
	mat.gateActive++
}

func (mat *Matrix) exitOp() {
	mat.gateActive--
	if mat.gateActive == 0 && mat.gateClosed && mat.gateDrained != nil {
		mat.gateDrained.Fire()
	}
}

// closeGate blocks new operators and waits until active ones drain. Operators
// stuck retrying a dead server eventually return ErrServerDown, so the drain
// terminates even under faults.
func (mat *Matrix) closeGate(p *simnet.Proc) {
	mat.gateClosed = true
	mat.gateReopen = mat.master.Cl.Sim.NewSignal()
	if mat.gateActive > 0 {
		mat.gateDrained = mat.master.Cl.Sim.NewSignal()
		mat.gateDrained.Wait(p)
		mat.gateDrained = nil
	}
}

func (mat *Matrix) openGate() {
	mat.gateClosed = false
	if mat.gateReopen != nil {
		mat.gateReopen.Fire()
		mat.gateReopen = nil
	}
}

// ---------------------------------------------------------------------------
// Membership

// AddServers provisions n fresh server machines and joins them to the
// master's fleet. New servers start empty: they serve no shard until a
// migration places columns on them. The coordinator pays one metadata RPC
// per joining server.
func (m *Master) AddServers(p *simnet.Proc, n int) error {
	if n <= 0 {
		return fmt.Errorf("ps: AddServers(%d): %w", n, ErrBadMigration)
	}
	g := p.Sim().NewGroup()
	for i := 0; i < n; i++ {
		node := m.Cl.AddServer()
		m.servers = append(m.servers, &Server{
			Index: len(m.servers), Node: node, shards: map[int]*Shard{},
			alive: true, failedAt: -1,
		})
		m.epochs = append(m.epochs, 0)
		m.Load = append(m.Load, ServerLoad{})
		g.Go("join-server", func(cp *simnet.Proc) {
			m.Cl.Driver.Send(cp, node, m.Cl.Cost.RequestOverheadB)
			node.Send(cp, m.Cl.Driver, m.Cl.Cost.RequestOverheadB)
		})
	}
	g.Wait(p)
	m.Migration.ServersAdded += n
	return nil
}

// RemoveServers retires the last n server machines. Every matrix must have
// been migrated off them first — a placement still spanning a to-be-removed
// server is a validation error, mirroring the zero-width check on the way in.
// The retired machines keep their traffic history (cluster.Retired).
func (m *Master) RemoveServers(p *simnet.Proc, n int) error {
	if n <= 0 || n >= len(m.servers) {
		return fmt.Errorf("ps: RemoveServers(%d) with %d servers: %w", n, len(m.servers), ErrBadMigration)
	}
	keep := len(m.servers) - n
	ids := make([]int, 0, len(m.matrices))
	for id := range m.matrices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if span := m.matrices[id].Part.NumServers(); span > keep {
			return fmt.Errorf("ps: matrix %d still spans %d servers, cannot shrink to %d: %w",
				id, span, keep, ErrBadMigration)
		}
	}
	g := p.Sim().NewGroup()
	for i := keep; i < len(m.servers); i++ {
		srv := m.servers[i]
		srv.alive = false
		if srv.Node.Up() {
			g.Go("retire-server", func(cp *simnet.Proc) {
				m.Cl.Driver.Send(cp, srv.Node, m.Cl.Cost.RequestOverheadB)
				srv.Node.Send(cp, m.Cl.Driver, m.Cl.Cost.RequestOverheadB)
				srv.Node.Fail()
			})
		}
	}
	g.Wait(p)
	m.servers = m.servers[:keep]
	m.epochs = m.epochs[:keep]
	m.Load = m.Load[:keep]
	m.Cl.RetireServers(n)
	m.Migration.ServersRemoved += n
	return nil
}

// ---------------------------------------------------------------------------
// Migration

// migPair is one source→target shard transfer: the columns of source logical
// shard sl that target logical shard tl owns, and the source shard's version
// stamp at the instant the bulk copy was taken (the delta pass ships every
// element stamped above it).
type migPair struct {
	sl, tl int
	cols   []int
	ver    uint64
}

// validateMigration checks the structural preconditions shared by every
// migration, mirroring the ErrBadIndices convention: programming errors are
// typed, not silent.
func (m *Master) validateMigration(mat *Matrix, target Placement, expectFP string) error {
	if target == nil {
		return fmt.Errorf("ps: migrate matrix %d: nil target placement: %w", mat.ID, ErrBadMigration)
	}
	if expectFP != mat.Part.Fingerprint() {
		return fmt.Errorf("ps: migrate matrix %d: expected placement %q, have %q: %w",
			mat.ID, expectFP, mat.Part.Fingerprint(), ErrStaleMigration)
	}
	if target.NumCols() != mat.Dim {
		return fmt.Errorf("ps: migrate matrix %d: target covers %d columns for dim %d: %w",
			mat.ID, target.NumCols(), mat.Dim, ErrBadMigration)
	}
	if n := target.NumServers(); n < 1 || n > len(m.servers) {
		return fmt.Errorf("ps: migrate matrix %d: target spans %d servers, cluster has %d: %w",
			mat.ID, n, len(m.servers), ErrBadMigration)
	}
	for t := 0; t < target.NumServers(); t++ {
		if target.Width(t) == 0 {
			return fmt.Errorf("ps: migrate matrix %d: target shard %d is zero-width: %w",
				mat.ID, t, ErrBadMigration)
		}
	}
	return nil
}

// MigrateMatrix moves mat onto the target placement while training continues.
// expectFP is a compare-and-swap guard: it must equal the matrix's current
// placement fingerprint (capture it when profiling), else ErrStaleMigration.
//
// Phase 1 (route gate open): every source shard streams its columns to their
// new owners, grouped per (source, target) pair; values travel with their
// per-element version stamps so the copy has a well-defined cut point. Phase
// 2 (gate closed): in-flight operators drain, each pair ships the elements
// mutated since its bulk copy as a sparse delta, and the placement, offset
// and staged shards are swapped in one host instant; the generation bump
// fences every cache entry and replica store. A fresh checkpoint is taken
// before the call returns so the recovery path restores new-placement state.
//
// Any endpoint crash or recovery observed mid-protocol aborts with
// ErrMigrationAborted and no state changed: the matrix still serves under
// its old placement and the caller retries after the detector heals the
// cluster. A migration to an equivalent placement is a no-op.
func (m *Master) MigrateMatrix(p *simnet.Proc, mat *Matrix, target Placement, expectFP string) error {
	if err := m.validateMigration(mat, target, expectFP); err != nil {
		return err
	}
	if SamePlacement(target, mat.Part) {
		return nil
	}

	// Version stamps drive the delta pass; enabling them is host-side and
	// idempotent.
	mat.EnableVersioning()

	oldPart, oldOffset := mat.Part, mat.Offset
	pOld, pNew := oldPart.NumServers(), target.NumServers()
	newOffset := oldOffset % pNew
	span := pOld
	if pNew > span {
		span = pNew
	}

	// The fault fence: raw recovery epochs of every physical server the
	// migration touches. Any change before the swap means an endpoint
	// crashed (and was recovered) mid-protocol; the migration aborts.
	baseEpochs := make([]uint64, span)
	for i := 0; i < span; i++ {
		srv := m.servers[i]
		if !srv.alive || !srv.Node.Up() {
			return fmt.Errorf("ps: migrate matrix %d: server %d down: %w", mat.ID, i, ErrServerDown)
		}
		baseEpochs[i] = m.epochs[i]
	}
	fenced := func() bool {
		for i := 0; i < span; i++ {
			if m.epochs[i] != baseEpochs[i] || !m.servers[i].alive || !m.servers[i].Node.Up() {
				return true
			}
		}
		return false
	}

	t := m.Cl.Sim.Tracer()
	var mig obs.Span
	if t != nil {
		mig = t.Begin(m.Cl.Driver.ID, m.Cl.Driver.Name, obs.KMigration,
			"migrate mat-"+strconv.Itoa(mat.ID), p.TraceParent(),
			obs.KV{K: "from", V: oldPart.Fingerprint()},
			obs.KV{K: "to", V: target.Fingerprint()})
		prev := p.SetTraceParent(mig)
		defer func() {
			p.SetTraceParent(prev)
			mig.End()
		}()
	}
	abort := func(cause error) error {
		m.Migration.Aborts++
		return fmt.Errorf("ps: migrate matrix %d: %v: %w", mat.ID, cause, ErrMigrationAborted)
	}

	// Phase 1: bulk copy with the gate open. Staged shards are host-side
	// until the swap; training keeps mutating the live source shards, and
	// every post-copy mutation is stamped above the pair's recorded version.
	staged := make([]*Shard, pNew)
	for tl := 0; tl < pNew; tl++ {
		staged[tl] = NewShard(mat.Rows, target.View(tl))
		staged[tl].enableVersions()
	}
	elemB := m.Cl.Cost.BytesPerFloat
	if mat.versioned {
		elemB += 8 // version stamp travels with each element
	}
	var pairs []*migPair
	for sl := 0; sl < pOld; sl++ {
		sh := m.servers[(sl+oldOffset)%pOld].shards[mat.ID]
		byTarget := make([][]int, pNew)
		for i := 0; i < sh.Width(); i++ {
			c := sh.view.At(i)
			tl := target.ServerOf(c)
			byTarget[tl] = append(byTarget[tl], c)
		}
		for tl := 0; tl < pNew; tl++ {
			if len(byTarget[tl]) > 0 {
				pairs = append(pairs, &migPair{sl: sl, tl: tl, cols: byTarget[tl]})
			}
		}
	}
	var streamErr error
	g := p.Sim().NewGroup()
	for _, pr := range pairs {
		pr := pr
		src := m.servers[(pr.sl+oldOffset)%pOld]
		dst := m.servers[(pr.tl+newOffset)%pNew]
		g.Go("migrate-stream", func(cp *simnet.Proc) {
			wire := m.Cl.Cost.RequestOverheadB + float64(len(pr.cols)*mat.Rows)*elemB
			if t != nil {
				ms := t.Begin(src.Node.ID, src.Node.Name, obs.KMigrateStream, "bulk-copy",
					mig, obs.KV{K: "cols", V: strconv.Itoa(len(pr.cols))})
				defer ms.End()
			}
			if err := m.reliableSend(cp, src.Node, dst.Node, wire); err != nil {
				if streamErr == nil {
					streamErr = err
				}
				return
			}
			if fenced() {
				if streamErr == nil {
					streamErr = fmt.Errorf("endpoint recovered mid-stream")
				}
				return
			}
			// Delivered: copy the source's current values (and stamps) in one
			// host instant and record the cut version — elements mutated after
			// this point carry a higher stamp and ride the cutover delta.
			sh := src.shards[mat.ID]
			dsh := staged[pr.tl]
			for _, c := range pr.cols {
				si, di := sh.Local(c), dsh.Local(c)
				for r := range sh.rows {
					dsh.Dense(r)[di] = sh.at(r, si)
					dsh.elemVer[r][di] = sh.elemVer[r][si]
				}
			}
			pr.ver = sh.ver
			m.Migration.BulkBytes += wire
		})
	}
	g.Wait(p)
	if streamErr != nil {
		return abort(streamErr)
	}
	if fenced() {
		return abort(fmt.Errorf("endpoint recovered during bulk copy"))
	}

	// Phase 2: cutover. Close the gate, drain in-flight operators, ship the
	// deltas, swap. An abort anywhere below reopens the gate with host state
	// untouched — the staged shards are simply discarded.
	var cut obs.Span
	if t != nil {
		cut = t.Begin(m.Cl.Driver.ID, m.Cl.Driver.Name, obs.KCutover, "cutover", mig)
		defer cut.End()
	}
	gateStart := p.Now()
	mat.closeGate(p)
	// Reopen stops the pause clock at the gate, not at function return — the
	// post-swap checkpoint below runs with training already flowing again.
	reopen := func() {
		mat.openGate()
		m.Migration.GateClosedSec += float64(p.Now()) - float64(gateStart)
	}
	if fenced() {
		reopen()
		return abort(fmt.Errorf("endpoint recovered before cutover"))
	}
	for _, pr := range pairs {
		src := m.servers[(pr.sl+oldOffset)%pOld]
		dst := m.servers[(pr.tl+newOffset)%pNew]
		sh := src.shards[mat.ID]
		dsh := staged[pr.tl]
		var changed int
		for _, c := range pr.cols {
			si := sh.Local(c)
			for r := range sh.rows {
				if sh.elemVer[r][si] > pr.ver {
					changed++
				}
			}
		}
		if changed > 0 {
			wire := m.Cl.Cost.SparseBytes(changed)
			if err := m.reliableSend(p, src.Node, dst.Node, wire); err != nil {
				reopen()
				return abort(err)
			}
			if fenced() {
				reopen()
				return abort(fmt.Errorf("endpoint recovered during delta"))
			}
			for _, c := range pr.cols {
				si, di := sh.Local(c), dsh.Local(c)
				for r := range sh.rows {
					if sh.elemVer[r][si] > pr.ver {
						dsh.Dense(r)[di] = sh.at(r, si)
						dsh.elemVer[r][di] = sh.elemVer[r][si]
					}
				}
			}
			m.Migration.DeltaBytes += wire
		}
	}
	if fenced() {
		reopen()
		return abort(fmt.Errorf("endpoint recovered before swap"))
	}

	// The swap: one host instant, no yields. Old shards go first (routing
	// still points at them), then the placement, offset and generation flip,
	// then the staged shards are installed under the new routing. The stale
	// checkpoint is dropped — its logical indices mean old-placement columns.
	for sl := 0; sl < pOld; sl++ {
		delete(m.servers[(sl+oldOffset)%pOld].shards, mat.ID)
	}
	mat.Part = target
	mat.Offset = newOffset
	mat.gen++
	for tl := 0; tl < pNew; tl++ {
		dsh := staged[tl]
		// Seat the staged stamps: the shard version resumes above every
		// carried element stamp so future mutations keep stamps monotonic.
		var maxV uint64
		for r := range dsh.elemVer {
			var rowV uint64
			for _, v := range dsh.elemVer[r] {
				if v > rowV {
					rowV = v
				}
			}
			dsh.rowVer[r] = rowV
			if rowV > maxV {
				maxV = rowV
			}
		}
		dsh.ver = maxV
		m.servers[(tl+newOffset)%pNew].shards[mat.ID] = dsh
	}
	delete(m.checkpoints, mat.ID)
	reopen()
	m.Migration.Migrations++

	// A crash between the swap and the next scheduled checkpoint would
	// otherwise zero-restore the moved shards; checkpoint immediately so the
	// PR 1 recovery path always has new-placement state to restore.
	m.Checkpoint(p, mat)
	return nil
}

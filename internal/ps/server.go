package ps

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Shard is one server's slice of a matrix: all rows, restricted to the
// columns the placement assigns this server. Columns are stored densely in
// the local order of the shard's ColView — for the default range placement
// that is the contiguous stretch [view.Lo, view.Hi) and Rows[r][c-Lo] stores
// element (r, c) exactly as before; for non-contiguous placements Rows[r][i]
// stores element (r, view.At(i)) and the off map translates absolute columns
// to local positions.
type Shard struct {
	view ColView
	off  map[int]int // absolute column → local position; nil when contiguous
	Rows [][]float64 // Rows[r][i] stores element (r, view.At(i))

	// dirty[r] is set by every mutating RPC that lands on row r and cleared
	// when a checkpoint snapshot is taken, so delta checkpoints skip rows
	// that are guaranteed unchanged (see diffCount).
	dirty []bool

	// Version stamps for the worker-side cache's if-modified-since protocol,
	// allocated only when the matrix has versioning enabled (see versions.go).
	// ver is the shard's current version; rowVer/elemVer record the version
	// of the last change per row and per element.
	ver     uint64
	rowVer  []uint64
	elemVer [][]uint64

	// Cumulative per-row drift watermarks for value-bounded cache
	// validation (versions.go): rowDrift[r] sums each declared mutation's
	// max-|delta| on row r; driftGen is bumped (and the watermarks reset)
	// by touchAll, whose magnitude is unknowable.
	rowDrift []float64
	driftGen uint64

	// snaps lists the ModelSnapshot pins active on this shard incarnation
	// (serve.go): commitMutate preserves pre-images into them just before it
	// stamps an element past a pin's version.
	snaps []*shardSnap
}

// NewShard allocates a zeroed rows × v shard.
func NewShard(rows int, v ColView) *Shard {
	sh := &Shard{view: v, Rows: make([][]float64, rows), dirty: make([]bool, rows)}
	if !v.Contiguous() {
		sh.off = make(map[int]int, len(v.Cols))
		for i, c := range v.Cols {
			sh.off[c] = i
		}
	}
	for r := range sh.Rows {
		sh.Rows[r] = linalg.Zeros(v.Width())
	}
	return sh
}

// View returns the shard's owned-column view.
func (sh *Shard) View() ColView { return sh.view }

// Width returns the shard's column count.
func (sh *Shard) Width() int { return sh.view.Width() }

// ColAt returns the absolute column stored at local position i.
func (sh *Shard) ColAt(i int) int { return sh.view.At(i) }

// Local translates an absolute column index to the shard's local storage
// position, panicking when the shard does not own the column (routing bug).
func (sh *Shard) Local(col int) int {
	if sh.off != nil {
		i, ok := sh.off[col]
		if !ok {
			panic(fmt.Sprintf("ps: column %d not owned by shard", col))
		}
		return i
	}
	if col < sh.view.Lo || col >= sh.view.Hi {
		panic(fmt.Sprintf("ps: column %d outside shard range [%d,%d)", col, sh.view.Lo, sh.view.Hi))
	}
	return col - sh.view.Lo
}

// locate returns where the shard stores a run of its columns (strictly
// increasing): column cols[k] at local position run[k]-lo. A contiguous shard
// checks once that the run lies in its range and returns its Lo and the run
// itself; an interleaved one returns 0 and each column's local position.
func (sh *Shard) locate(cols []int) (lo int, run []int) {
	if sh.off != nil {
		run = make([]int, len(cols))
		for k, col := range cols {
			run[k] = sh.Local(col)
		}
		return 0, run
	}
	if n := len(cols); n > 0 && (cols[0] < sh.view.Lo || cols[n-1] >= sh.view.Hi) {
		panic(fmt.Sprintf("ps: columns [%d..%d] outside shard range [%d,%d)", cols[0], cols[n-1], sh.view.Lo, sh.view.Hi))
	}
	return sh.view.Lo, cols
}

// Scatter writes local-order values into their absolute positions of a
// full-dimension vector (full[ColAt(i)] = local[i]).
func (sh *Shard) Scatter(local, full []float64) { sh.view.Scatter(local, full) }

// Gather fills local from the shard's absolute positions of a full-dimension
// vector (local[i] = full[ColAt(i)]).
func (sh *Shard) Gather(local, full []float64) { sh.view.Gather(local, full) }

// GatherAdd accumulates the shard's absolute positions of a full-dimension
// vector into local (local[i] += full[ColAt(i)]).
func (sh *Shard) GatherAdd(local, full []float64) { sh.view.GatherAdd(local, full) }

// clone deep-copies a shard's data (used by checkpointing). The clone gets
// fresh metadata: snapshots never need dirty flags or version stamps, and a
// clone installed by recovery starts clean — it is bit-identical to the store
// snapshot the next delta checkpoint will diff against, and the recovery
// epoch bump fences any cache entry stamped under the old version counters.
// The view and offset map are immutable and shared.
func (sh *Shard) clone() *Shard {
	c := &Shard{view: sh.view, off: sh.off, Rows: make([][]float64, len(sh.Rows)), dirty: make([]bool, len(sh.Rows))}
	for r := range sh.Rows {
		c.Rows[r] = append([]float64(nil), sh.Rows[r]...)
	}
	return c
}

// bytes returns the checkpoint wire size of the shard.
func (sh *Shard) bytes(cost cluster.CostModel) float64 {
	return cost.DenseBytes(len(sh.Rows) * sh.Width())
}

// diffCount returns how many elements differ between the live shard cur and
// its previous snapshot prev — the entry count a delta checkpoint ships as
// (index, value) pairs. Rows whose dirty flag is clear have not been mutated
// since the snapshot was taken and are skipped without scanning; dirty rows
// are still element-compared, so the count (and hence the checkpoint wire
// size) is exactly what a full scan would produce.
func diffCount(prev, cur *Shard) int {
	n := 0
	for r := range cur.Rows {
		if cur.dirty != nil && !cur.dirty[r] {
			continue
		}
		pr := prev.Rows[r]
		for c, v := range cur.Rows[r] {
			if pr[c] != v {
				n++
			}
		}
	}
	return n
}

// Server is one PS-server: a machine plus the matrix shards it stores.
type Server struct {
	Index  int
	Node   *simnet.Node
	shards map[int]*Shard
	alive  bool

	// failedAt is the virtual time of the last environment-injected crash
	// (-1 when healthy); the detector uses it to report honest detection
	// latency.
	failedAt simnet.Time

	// applied dedups mutating RPCs (see rpc.go). It dies with the server.
	applied AppliedSet

	// CarrySent/CarryRecv accumulate traffic counters of this logical
	// server's previous machine incarnations, so Stats stays monotonic
	// across recoveries.
	CarrySent float64
	CarryRecv float64
}

// Master is the PS-master living inside the coordinator: it owns matrix
// metadata (routing tables) and the lifetime of servers, and drives
// checkpoint/recovery. In the paper this module is part of the driver.
type Master struct {
	Cl       *cluster.Cluster
	servers  []*Server
	matrices map[int]*Matrix
	nextID   int

	// checkpoints[matrixID][serverIndex] is the latest snapshot stored on
	// the reliable store node.
	checkpoints map[int][]*Shard

	// Retry is the client-side retry policy for all data-plane RPCs.
	Retry RetryConfig

	// DeltaCheckpoints ships only changed elements on re-checkpoint instead
	// of full snapshots (on by default; recovery restores full state either
	// way because the store folds deltas into its base copy).
	DeltaCheckpoints bool

	// Unreliable marks runs where failures can occur; it arms request-ID
	// dedup for mutations. Set automatically by Crash/KillServer and when
	// the simulation's chaos layer is enabled.
	Unreliable bool

	// Recovery accumulates the self-healing subsystem's metrics.
	Recovery obs.RecoverySnapshot

	// Net counts data-plane RPC activity (logical calls, attempts including
	// retries, fused-op payloads) — the observability the ext-fusion
	// benchmark reads.
	Net NetStats

	// Cache accumulates worker-side cache and write-combining counters from
	// every CachedClient and PushBuffer attached to this master's matrices
	// (see cache.go) — the observability the ext-cache benchmark reads.
	Cache obs.CacheSnapshot

	// Replica accumulates hot-column replication counters from every
	// HotReplicaSet attached to this master's matrices (see replica.go).
	Replica ReplicaStats

	// Migration accumulates the elastic-membership subsystem's counters
	// (see migrate.go) — the observability the ext-elastic benchmark reads.
	Migration obs.MigrationSnapshot

	// Serve accumulates the serving tier's counters (see serve.go) — reads,
	// snapshot pins/fences, admission queueing and shed rates.
	Serve obs.ServeSnapshot

	// Consistency accumulates freshness-decision counters from every layer
	// that consults a consistency.Policy (see policy.go); read it through
	// ConsistencyReport, which folds in adaptive bound movements.
	Consistency obs.ConsistencySnapshot

	// policies lists the non-clock consistency policies attached to this
	// master's matrices (registerPolicy), for the report fold.
	policies []consistency.Policy

	// calls pools the records of finished CallShards (rpc.go).
	calls []*call

	// Admission, when installed (SetAdmission), gates every data-plane
	// CallShard through a per-server token bucket with a bounded, class-aware
	// queue. nil (the default) admits everything at zero cost.
	Admission *AdmissionControl

	// Placement, when set, builds the placement for every subsequently
	// created matrix (CreateMatrix consults it; CreateMatrixPlaced bypasses
	// it). nil keeps the default contiguous range placement.
	Placement PlacementFactory

	// Load counts successful data-plane calls and their wire bytes per
	// physical server — the per-server load view behind the imbalance gauge
	// (see LoadReport).
	Load []ServerLoad

	// epochs[s] counts recoveries of physical server s. RecoverServer bumps
	// it when the old machine is fenced; cache entries remember the epoch
	// they were filled under and are discarded on mismatch (versions.go).
	epochs []uint64

	// ledger issues the IDs of mutating requests in session 0 (rpc.go).
	ledger Ledger

	monitorStop *simnet.Signal
}

// DedupSize reports the current applied-set size (exported so tests can
// assert the map stays bounded over long unreliable runs).
func (srv *Server) DedupSize() int { return srv.applied.Len() }

// NewMaster starts a PS application over every server machine in cl.
func NewMaster(cl *cluster.Cluster) *Master {
	m := &Master{
		Cl:               cl,
		matrices:         map[int]*Matrix{},
		checkpoints:      map[int][]*Shard{},
		Retry:            DefaultRetryConfig(),
		DeltaCheckpoints: true,
		ledger:           NewLedger(0),
	}
	m.epochs = make([]uint64, len(cl.Servers))
	m.Load = make([]ServerLoad, len(cl.Servers))
	for i, node := range cl.Servers {
		m.servers = append(m.servers, &Server{
			Index: i, Node: node, shards: map[int]*Shard{}, alive: true,
			failedAt: -1,
		})
	}
	return m
}

// NumServers returns the number of PS-servers.
func (m *Master) NumServers() int { return len(m.servers) }

// Server returns server i (exported for tests and failure experiments).
func (m *Master) Server(i int) *Server { return m.servers[i] }

// Matrix is a dense matrix of shape Rows × Dim, column-partitioned over all
// servers. It is the raw storage behind DCVs: dcv.Dense allocates a matrix
// with k rows and dcv.Derive hands out its free rows, which is how derived
// vectors share one partitioner and stay dimension co-located.
type Matrix struct {
	ID   int
	Rows int
	Dim  int
	Part Placement
	// Offset rotates the placement of logical shards onto physical servers:
	// logical shard s lives on server (s+Offset) mod P. The master assigns a
	// fresh offset to every independently created matrix (load balancing),
	// which is why two independently allocated DCVs of the same dimension do
	// NOT have their columns on the same machines — the paper's Figure 4
	// "inefficient writing". Rows of one matrix share the offset, giving
	// derived DCVs their co-location guarantee.
	Offset int
	master *Master

	// versioned is set by EnableVersioning (versions.go): shards then stamp
	// changed elements so CachedClients can validate cheaply.
	versioned bool

	// gen counts placement generations: MigrateMatrix bumps it when it swaps
	// Part, and ShardEpoch mixes it into the epoch it reports. A generation
	// bump therefore fences every CachedClient entry and HotReplicaSet store
	// exactly like a server recovery would — necessary because a logical shard
	// index names a different column set under the new placement.
	gen uint64

	// clock is the model clock (serve.go): trainers tick it once per
	// iteration after the optimizer step; replica freshness and snapshot pins
	// are expressed against it. Host-side, monotone, never reset.
	clock int64

	// Route gate (migrate.go): top-level operators register with enterOp /
	// exitOp; the migration cutover closes the gate, waits for active
	// operators to drain, swaps the placement, and reopens. All host-side —
	// an open gate adds no yields, events, or virtual time.
	gateActive  int
	gateClosed  bool
	gateReopen  *simnet.Signal
	gateDrained *simnet.Signal
}

// srv returns the physical server holding logical shard s. The modulus is the
// placement's server span, not the cluster size, so a matrix keeps its
// routing when servers are added: a P-server placement always occupies
// physical servers 0..P-1 (Offset < P by construction).
func (mat *Matrix) srv(s int) *Server {
	return mat.master.servers[(s+mat.Offset)%mat.Part.NumServers()]
}

// PlacementFactory builds the placement for a dim-column matrix over n
// servers. Installed on Master.Placement it applies to every matrix a job
// creates (weights and all derived state share one matrix, so co-location is
// preserved by construction).
type PlacementFactory func(dim, servers int) (Placement, error)

// CreateMatrix allocates a rows×dim matrix across all servers, placed by the
// master's placement factory (default: contiguous ranges). The calling
// coordinator process pays one metadata RPC per server.
func (m *Master) CreateMatrix(p *simnet.Proc, rows, dim int) (*Matrix, error) {
	var pl Placement
	var err error
	if m.Placement != nil {
		pl, err = m.Placement(dim, len(m.servers))
	} else {
		pl, err = NewPartitioner(dim, len(m.servers))
	}
	if err != nil {
		return nil, err
	}
	return m.CreateMatrixPlaced(p, rows, dim, pl)
}

// CreateMatrixPlaced allocates a rows×dim matrix with an explicit placement,
// bypassing the master's factory.
func (m *Master) CreateMatrixPlaced(p *simnet.Proc, rows, dim int, pl Placement) (*Matrix, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("ps: CreateMatrix rows must be positive, got %d", rows)
	}
	if pl == nil {
		return nil, fmt.Errorf("ps: CreateMatrixPlaced needs a placement")
	}
	if pl.NumCols() != dim {
		return nil, fmt.Errorf("ps: placement covers %d columns for dim %d", pl.NumCols(), dim)
	}
	if pl.NumServers() > len(m.servers) {
		return nil, fmt.Errorf("ps: placement spans %d servers, cluster has %d", pl.NumServers(), len(m.servers))
	}
	m.nextID++
	mat := &Matrix{ID: m.nextID, Rows: rows, Dim: dim, Part: pl,
		Offset: (m.nextID - 1) % pl.NumServers(), master: m}
	g := p.Sim().NewGroup()
	for s := 0; s < pl.NumServers(); s++ {
		s := s
		srv := mat.srv(s)
		g.Go("create-shard", func(cp *simnet.Proc) {
			m.Cl.Driver.Send(cp, srv.Node, m.Cl.Cost.RequestOverheadB)
			srv.shards[mat.ID] = NewShard(rows, pl.View(s))
			srv.Node.Send(cp, m.Cl.Driver, m.Cl.Cost.RequestOverheadB)
		})
	}
	g.Wait(p)
	m.matrices[mat.ID] = mat
	return mat, nil
}

// shardOn returns matrix mat's shard for logical shard index s, panicking if
// the hosting server lost its state (tests exercise recovery before further
// access).
func (mat *Matrix) shardOn(s int) *Shard {
	srv := mat.srv(s)
	sh, ok := srv.shards[mat.ID]
	if !ok {
		panic(fmt.Sprintf("ps: server %d has no shard for matrix %d (failed and not recovered?)", srv.Index, mat.ID))
	}
	return sh
}

// Checkpoint writes a snapshot of every server's shard of mat to the
// reliable store. The coordinator blocks until all servers finish; each
// server streams its shard bytes to the store node in parallel. With
// DeltaCheckpoints on, a server that already checkpointed this matrix ships
// only the elements that changed since (as sparse index/value pairs, capped
// at the full-snapshot size); the store folds the delta into its base copy,
// so restores always replay one full shard. Servers that are currently dead
// are skipped — their previous snapshot remains the recovery point, which is
// exactly the "loss since last checkpoint" model of the paper's §5.3.
func (m *Master) Checkpoint(p *simnet.Proc, mat *Matrix) {
	prev := m.checkpoints[mat.ID]
	snaps := make([]*Shard, mat.Part.NumServers())
	if prev != nil {
		copy(snaps, prev)
	}
	t := m.Cl.Sim.Tracer()
	g := p.Sim().NewGroup()
	for s := 0; s < mat.Part.NumServers(); s++ {
		s := s
		srv := mat.srv(s)
		g.Go("checkpoint", func(cp *simnet.Proc) {
			sh, ok := srv.shards[mat.ID]
			if !ok || !srv.alive || !srv.Node.Up() {
				return
			}
			full := sh.bytes(m.Cl.Cost)
			wire := full
			if m.DeltaCheckpoints && prev != nil && prev[s] != nil {
				wire = min(m.Cl.Cost.SparseBytes(diffCount(prev[s], sh)), full)
			}
			if t != nil {
				ck := t.Begin(srv.Node.ID, srv.Node.Name, obs.KCheckpoint, "checkpoint",
					cp.TraceParent(), obs.KV{K: "mat", V: strconv.Itoa(mat.ID)})
				prevSpan := cp.SetTraceParent(ck)
				defer func() {
					cp.SetTraceParent(prevSpan)
					ck.End()
				}()
			}
			if m.reliableSend(cp, srv.Node, m.Cl.Store, wire) != nil {
				return // crashed mid-stream: keep the previous snapshot
			}
			// Clone and clear the dirty flags in the same host instant: rows
			// mutated after this point are dirty relative to exactly this
			// snapshot.
			snaps[s] = sh.clone()
			sh.clearDirty()
			m.Recovery.CheckpointBytesWritten += wire
			m.Recovery.CheckpointBytesFull += full
		})
	}
	g.Wait(p)
	m.checkpoints[mat.ID] = snaps
}

// CrashServer is the environment's fault injection: machine s drops off the
// network mid-whatever-it-was-doing and its shards are lost. Unlike
// KillServer the master is NOT told — it still believes the server is alive
// until the heartbeat detector notices, which is what makes reported
// detection latency honest.
func (m *Master) CrashServer(s int) {
	srv := m.servers[s]
	srv.failedAt = m.Cl.Sim.Now()
	srv.Node.Fail()
	srv.shards = map[int]*Shard{}
	srv.applied = AppliedSet{}
	m.Unreliable = true
	m.Recovery.ServerCrashes++
}

// KillServer simulates the crash of server s with the master informed
// immediately (the pre-detector manual API): all shards are lost and the
// server is marked dead, awaiting a manual RecoverServer.
func (m *Master) KillServer(s int) {
	m.CrashServer(s)
	m.servers[s].alive = false
}

// RecoverServer provisions a replacement machine for server s and restores
// every checkpointed matrix shard from the store. Matrices without a
// checkpoint are reallocated as zeros (their state since the last checkpoint
// is lost, exactly as in the paper's server-failure model). The old machine
// is fenced first so stale in-flight requests can never land on it, and its
// traffic counters are carried into the server's stats.
func (m *Master) RecoverServer(p *simnet.Proc, s int) {
	start := p.Now()
	t := m.Cl.Sim.Tracer()
	var rec obs.Span
	if t != nil {
		rec = t.Begin(m.Cl.Driver.ID, m.Cl.Driver.Name, obs.KRecovery,
			"recover server-"+strconv.Itoa(s), p.TraceParent())
		defer rec.End()
	}
	srv := m.servers[s]
	srv.alive = false
	old := srv.Node
	var fence obs.Span
	if t != nil {
		fence = t.Begin(old.ID, old.Name, obs.KFence, "fence", rec)
	}
	old.Fail()
	// Bump the recovery epoch at the fence: the replacement's shards restart
	// their version counters, so every cache entry stamped under the old
	// incarnation must be discarded, and the epoch mismatch is what tells
	// CachedClients to do so (no stale read crosses this point).
	m.epochs[s]++
	srv.CarrySent += old.BytesSent
	srv.CarryRecv += old.BytesRecv
	srv.Node = m.Cl.ReplaceServer(s)
	srv.shards = map[int]*Shard{}
	srv.applied = AppliedSet{}
	fence.End()

	// Sorted matrix order keeps the simulation deterministic (map iteration
	// order would reshuffle restore-stream interleaving run to run).
	ids := make([]int, 0, len(m.matrices))
	for id := range m.matrices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	g := p.Sim().NewGroup()
	for _, id := range ids {
		id, mat := id, m.matrices[id]
		// A P-server placement occupies physical servers 0..P-1; matrices not
		// hosted on s have nothing to restore here.
		span := mat.Part.NumServers()
		if s >= span {
			continue
		}
		// The logical shard that physical server s hosts for this matrix.
		logical := (s - mat.Offset + span) % span
		g.Go("recover", func(cp *simnet.Proc) {
			if t != nil {
				rs := t.Begin(srv.Node.ID, srv.Node.Name, obs.KRestore, "restore",
					rec, obs.KV{K: "mat", V: strconv.Itoa(id)})
				prevSpan := cp.SetTraceParent(rs)
				defer func() {
					cp.SetTraceParent(prevSpan)
					rs.End()
				}()
			}
			if snaps, ok := m.checkpoints[id]; ok && snaps[logical] != nil {
				b := snaps[logical].bytes(m.Cl.Cost)
				m.reliableSend(cp, m.Cl.Store, srv.Node, b)
				srv.shards[id] = snaps[logical].clone()
				m.Recovery.RestoreBytes += b
			} else {
				srv.shards[id] = NewShard(mat.Rows, mat.Part.View(logical))
				m.Recovery.ZeroRestoredShards++
			}
			if mat.versioned {
				// Fresh (all-zero) stamps are sound: the epoch bump above
				// already fenced every entry that could alias them.
				srv.shards[id].enableVersions()
			}
		})
	}
	g.Wait(p)
	srv.alive = true
	srv.failedAt = -1
	m.Recovery.Recoveries++
	m.Recovery.RecoverySecSum += p.Now() - start
}

// Alive reports whether server s holds live state.
func (m *Master) Alive(s int) bool { return m.servers[s].alive }

// ServerLoad counts the data-plane traffic one physical server absorbed:
// successful CallShard requests and their total wire bytes (request plus
// response). CallShard increments it on delivery, so retries against a dead
// machine don't inflate the numbers.
type ServerLoad struct {
	Ops   uint64
	Bytes float64
}

// LoadReport returns a copy of the per-server load counters.
func (m *Master) LoadReport() []ServerLoad {
	return append([]ServerLoad(nil), m.Load...)
}

// ServerStats summarizes one server's storage load.
type ServerStats struct {
	Server    int
	Shards    int
	Elements  int64
	Bytes     float64
	BytesSent float64
	BytesRecv float64
}

// Stats returns per-server storage and traffic statistics — the view the
// coordinator's monitoring page would show.
func (m *Master) Stats() []ServerStats {
	out := make([]ServerStats, len(m.servers))
	for i, srv := range m.servers {
		// Carry counters cover earlier machine incarnations of this logical
		// server, keeping the series monotonic across recoveries.
		st := ServerStats{
			Server:    i,
			BytesSent: srv.CarrySent + srv.Node.BytesSent,
			BytesRecv: srv.CarryRecv + srv.Node.BytesRecv,
		}
		for _, sh := range srv.shards {
			st.Shards++
			st.Elements += int64(len(sh.Rows) * sh.Width())
		}
		st.Bytes = float64(st.Elements) * 8
		out[i] = st
	}
	return out
}

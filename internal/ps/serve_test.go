package ps

import (
	"errors"
	"math"
	"testing"

	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// TestSnapshotBitIdenticalUnderPushes pins the tentpole guarantee: reads
// through a pinned ModelSnapshot return exactly the values live at the pin,
// bit-identical no matter how many pushes land afterwards, while live reads
// see every push.
func TestSnapshotBitIdenticalUnderPushes(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 2, 32)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) * 1.5 })
		idx := []int{0, 3, 7, 9, 15, 20, 27, 31}

		snap, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		base, err := snap.ReadRowIndices(p, worker, 0, idx)
		if err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
		for k, col := range idx {
			if base[k] != float64(col)*1.5 {
				t.Fatalf("pinned read col %d = %v, want %v", col, base[k], float64(col)*1.5)
			}
		}

		// Storm of pushes, repeatedly overwriting pinned elements.
		for round := 0; round < 5; round++ {
			sv, _ := linalg.NewSparse([]int{3, 9, 20, 31}, []float64{1, -2, 0.5, float64(round)})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			got, err := snap.ReadRowIndices(p, worker, 0, idx)
			if err != nil {
				t.Fatalf("round %d snapshot read: %v", round, err)
			}
			for k := range base {
				if got[k] != base[k] {
					t.Fatalf("round %d: pinned col %d drifted to %v, pinned %v",
						round, idx[k], got[k], base[k])
				}
			}
		}
		// The live model must have moved where the pushes landed.
		live := must(mat.PullRowIndices(p, worker, 0, idx))
		if live[1] == base[1] || live[7] == base[7] {
			t.Fatalf("live read did not see pushes: live %v, pinned %v", live, base)
		}
		if !snap.Valid() {
			t.Fatal("snapshot invalidated by declared pushes")
		}
		snap.Close()
		if snap.Valid() {
			t.Fatal("snapshot still valid after Close")
		}
		if _, err := snap.ReadRowIndices(p, worker, 0, idx); !errors.Is(err, ErrSnapshotInvalid) {
			t.Fatalf("read after Close: got %v, want ErrSnapshotInvalid", err)
		}
		if m.Serve.SnapshotsPinned != 1 || m.Serve.SnapshotReads < 6 {
			t.Fatalf("serve stats wrong: %+v", m.Serve)
		}
	})
}

// TestSnapshotFencedByRecovery pins epoch fencing: a server crash and
// recovery after the pin invalidates the snapshot with the typed error —
// it must never return restored (torn) values.
func TestSnapshotFencedByRecovery(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 24)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) + 0.25 })
		m.Checkpoint(p, mat)
		idx := []int{0, 5, 11, 17, 23}

		snap, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		if _, err := snap.ReadRowIndices(p, worker, 0, idx); err != nil {
			t.Fatalf("pre-crash snapshot read: %v", err)
		}
		// Push past the checkpoint, then lose and restore the first server:
		// the restored shard no longer holds the pinned values.
		sv, _ := linalg.NewSparse([]int{0, 5}, []float64{10, 10})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		m.KillServer(0)
		m.RecoverServer(p, 0)

		if snap.Valid() {
			t.Fatal("snapshot still claims valid after recovery")
		}
		if _, err := snap.ReadRowIndices(p, worker, 0, idx); !errors.Is(err, ErrSnapshotInvalid) {
			t.Fatalf("post-recovery snapshot read: got %v, want ErrSnapshotInvalid", err)
		}
		if m.Serve.SnapshotFences == 0 {
			t.Fatal("fence not counted")
		}
		snap.Close()

		// A fresh pin serves the recovered state, matching the live pull.
		snap2, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("re-pin: %v", err)
		}
		defer snap2.Close()
		got, err := snap2.ReadRowIndices(p, worker, 0, idx)
		if err != nil {
			t.Fatalf("re-pinned read: %v", err)
		}
		want := must(mat.PullRowIndices(p, worker, 0, idx))
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("re-pinned col %d = %v, live %v", idx[k], got[k], want[k])
			}
		}
	})
}

// TestFencedSnapshotReadSpawnsNoRPCs: a read that spans a live shard and a
// fenced one must refuse before any child process exists. Returning from
// inside the fan-out would leave the lower-numbered shard's child issuing its
// serve-snapshot RPC after the caller's exitOp — an in-flight op the
// migration route gate no longer knows about.
func TestFencedSnapshotReadSpawnsNoRPCs(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 16)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		snap, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		defer snap.Close()
		m.KillServer(1)
		m.RecoverServer(p, 1)

		before := m.Net
		if _, err := snap.ReadRowIndices(p, worker, 0, []int{0, 15}); !errors.Is(err, ErrSnapshotInvalid) {
			t.Fatalf("read spanning the recovered shard: got %v, want ErrSnapshotInvalid", err)
		}
		p.Sleep(1) // let any leaked child run
		if m.Net.Calls != before.Calls || m.Net.Attempts != before.Attempts {
			t.Fatalf("fenced read issued RPCs after returning: %d calls, %d attempts",
				m.Net.Calls-before.Calls, m.Net.Attempts-before.Attempts)
		}
	})
}

// TestSnapshotInvalidatedByUndeclaredWrite: a bulk mutation that declares no
// touched rows (a mutating Invoke without DirtyRows) has no pre-images to
// preserve, so active pins must fence rather than risk a torn read.
func TestSnapshotInvalidatedByUndeclaredWrite(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 12)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		snap, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		if _, err := mat.Invoke(p, worker, InvokeOp{Mutates: true}); err != nil {
			t.Fatal(err)
		}
		if snap.Valid() {
			t.Fatal("snapshot valid after undeclared bulk write")
		}
		if _, err := snap.ReadRowIndices(p, worker, 0, []int{0, 1}); !errors.Is(err, ErrSnapshotInvalid) {
			t.Fatalf("got %v, want ErrSnapshotInvalid", err)
		}
		snap.Close()
	})
}

// TestSnapshotChaosMigration runs snapshot reads concurrently with pushes and
// a live placement migration: every read that succeeds is bit-identical to
// the pin, every read after the cutover fences with the typed error, and no
// read ever returns a torn mixture.
func TestSnapshotChaosMigration(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 32)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) * 2.0 })
		idx := []int{0, 4, 9, 13, 18, 22, 27, 31}

		snap, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		base, err := snap.ReadRowIndices(p, worker, 0, idx)
		if err != nil {
			t.Fatalf("baseline read: %v", err)
		}

		fenced := false
		g := sim.NewGroup()
		g.Go("migrator", func(cp *simnet.Proc) {
			cp.Sleep(0.01)
			if err := m.MigrateMatrix(cp, mat, mustRange(32, 3), fp(mat)); err != nil {
				t.Errorf("migrate: %v", err)
			}
		})
		g.Go("pusher", func(cp *simnet.Proc) {
			for i := 0; i < 20; i++ {
				sv, _ := linalg.NewSparse([]int{4, 18, 31}, []float64{1, 1, 1})
				mustOK(mat.PushAdd(cp, cl.Executors[1], 0, sv))
				cp.Sleep(0.005)
			}
		})
		g.Go("server", func(cp *simnet.Proc) {
			for i := 0; i < 40; i++ {
				got, err := snap.ReadRowIndices(cp, worker, 0, idx)
				if err != nil {
					if !errors.Is(err, ErrSnapshotInvalid) {
						t.Errorf("read %d: got %v, want ErrSnapshotInvalid", i, err)
						return
					}
					fenced = true
				} else {
					if fenced {
						t.Errorf("read %d succeeded after an earlier fence", i)
						return
					}
					for k := range base {
						if got[k] != base[k] {
							t.Errorf("read %d: col %d = %v, pinned %v (torn)", i, idx[k], got[k], base[k])
							return
						}
					}
				}
				cp.Sleep(0.005)
			}
		})
		g.Wait(p)
		if !fenced {
			t.Fatal("migration cutover never fenced the snapshot")
		}
		snap.Close()

		// Serving resumes on the new placement: re-pin and agree with live.
		snap2, err := mat.PinSnapshot(p)
		if err != nil {
			t.Fatalf("re-pin after migration: %v", err)
		}
		defer snap2.Close()
		got, err := snap2.ReadRowIndices(p, worker, 0, idx)
		if err != nil {
			t.Fatalf("post-migration read: %v", err)
		}
		want := must(mat.PullRowIndices(p, worker, 0, idx))
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("post-migration col %d = %v, live %v", idx[k], got[k], want[k])
			}
		}
	})
}

// TestAdmissionShedsTypedAndBounded floods one server with concurrent serve
// and train calls under a tiny admission budget: the overflow sheds with the
// typed ErrOverload, the queue never exceeds its bound, and the unfavored
// class sheds first.
func TestAdmissionShedsTypedAndBounded(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 32)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		reader, err := NewModelReader(mat, ServeConfig{})
		if err != nil {
			panic(err)
		}
		adm, err := NewAdmissionControl(AdmissionConfig{
			RatePerSec: 1, Burst: 1, MaxQueue: 4, LowQueue: 1, Favor: ClassServe,
		})
		if err != nil {
			panic(err)
		}
		m.SetAdmission(adm)

		idx := []int{0, 1} // one shard -> one admission charge per call
		const each = 30
		serveErrs := make([]error, each)
		trainErrs := make([]error, each)
		g := sim.NewGroup()
		for i := 0; i < each; i++ {
			i := i
			g.Go("serve-req", func(cp *simnet.Proc) {
				_, serveErrs[i] = reader.Read(cp, worker, 0, idx)
			})
			g.Go("train-req", func(cp *simnet.Proc) {
				_, trainErrs[i] = mat.PullRowIndices(cp, worker, 0, idx)
			})
		}
		g.Wait(p)
		m.SetAdmission(nil)

		shedServe, shedTrain := 0, 0
		for i := 0; i < each; i++ {
			for _, pair := range []struct {
				err  error
				shed *int
			}{{serveErrs[i], &shedServe}, {trainErrs[i], &shedTrain}} {
				if pair.err == nil {
					continue
				}
				if !errors.Is(pair.err, ErrOverload) {
					t.Fatalf("unexpected error class: %v", pair.err)
				}
				*pair.shed++
			}
		}
		if shedServe == 0 || shedTrain == 0 {
			t.Fatalf("overload did not shed both classes: serve %d, train %d", shedServe, shedTrain)
		}
		if shedTrain <= shedServe {
			t.Fatalf("favored serve class must shed less: serve %d, train %d", shedServe, shedTrain)
		}
		if uint64(shedServe) != m.Serve.ShedServe || uint64(shedTrain) != m.Serve.ShedTrain {
			t.Fatalf("shed counters disagree: saw %d/%d, stats %+v", shedServe, shedTrain, m.Serve)
		}
		if m.Serve.MaxQueueDepth > 4 {
			t.Fatalf("queue exceeded its bound: depth %d > 4", m.Serve.MaxQueueDepth)
		}
		if m.Serve.Admitted == 0 || m.Serve.Delayed == 0 || m.Serve.QueueDelaySec <= 0 {
			t.Fatalf("admission stats not maintained: %+v", m.Serve)
		}

		// Config validation is typed and eager.
		if _, err := NewAdmissionControl(AdmissionConfig{RatePerSec: 0}); err == nil {
			t.Fatal("zero rate must be rejected")
		}
	})
}

// TestReplicaFreshAfterTrainerTick is the missed-tick regression: the model
// clock lives on the Matrix, so a trainer calling TickClock is enough for a
// serving reader's replica store to revalidate — no manual HotReplicaSet
// tick, which serving callers do not own, is required.
func TestReplicaFreshAfterTrainerTick(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 32)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		reader, err := NewModelReader(mat, ServeConfig{Replicas: &ReplicaConfig{HotCols: []int{0, 1, 2, 3}}})
		if err != nil {
			panic(err)
		}
		rs := reader.Replicas()
		idx := []int{0, 1, 2, 3}
		for i := 0; i < 8; i++ { // more reads than servers: warm every store
			if _, err := reader.Read(p, worker, 0, idx); err != nil {
				t.Fatalf("warm read: %v", err)
			}
		}
		// The model changes and the trainer ticks the matrix clock — exactly
		// what lr/deepwalk do each iteration. No mat.TickClock() anywhere.
		sv, _ := linalg.NewSparse([]int{1, 3}, []float64{100, 100})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		mat.TickClock()
		if rs.Clock() != mat.Clock() {
			t.Fatalf("replica clock %d detached from matrix clock %d", rs.Clock(), mat.Clock())
		}
		for i := 0; i < 8; i++ { // every store must revalidate, then serve locally
			got, err := reader.Read(p, worker, 0, idx)
			if err != nil {
				t.Fatalf("post-tick read: %v", err)
			}
			if got[1] != 101 || got[3] != 103 {
				t.Fatalf("stale replica read after trainer tick: %v", got)
			}
		}
		if rs.Stats().LocalHits == 0 {
			t.Fatalf("hot path never served locally: %+v", rs.Stats())
		}
		if m.Serve.Reads < 8 || m.Serve.ReadVals < 32 {
			t.Fatalf("serve read counters wrong: %+v", m.Serve)
		}
	})
}

// TestModelReaderOptions covers the reader's configuration surface: the
// full-row embedding shape, snapshot-pinned reads through the reader's
// Snapshot, and the replica set's own policy bounding live reads.
func TestModelReaderOptions(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 2, 12)
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 1, func(c int) float64 { return float64(c) * 3 })
		reader, err := NewModelReader(mat, ServeConfig{Replicas: &ReplicaConfig{HotCols: []int{0, 1}, Policy: consistency.NewClockBounded(2)}})
		if err != nil {
			panic(err)
		}
		if reader.Matrix() != mat || reader.Replicas() == nil {
			t.Fatal("reader wiring wrong")
		}
		row, err := reader.ReadRow(p, worker, 1)
		if err != nil {
			t.Fatalf("ReadRow: %v", err)
		}
		if len(row) != 12 || row[4] != 12 {
			t.Fatalf("ReadRow = %v", row)
		}
		snap, err := reader.Snapshot(p)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		defer snap.Close()
		pinned, err := snap.ReadRowIndices(p, worker, 1, []int{2, 5})
		if err != nil {
			t.Fatalf("pinned read: %v", err)
		}
		if pinned[0] != 6 || pinned[1] != 15 {
			t.Fatalf("pinned read = %v", pinned)
		}

		// Replica reads under a delta-consuming policy, on a frozen row. The
		// serving store rotates per read, so each step reads once per store.
		const bound = 0.5
		hot := []int{0, 1}
		vb, err := NewModelReader(mat, ServeConfig{Replicas: &ReplicaConfig{HotCols: hot, Policy: consistency.NewValueBounded(bound)}})
		if err != nil {
			panic(err)
		}
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) + 1 })
		stores := mat.Part.NumServers()
		readAll := func(step string, want0 float64) {
			for i := 0; i < stores; i++ {
				got, err := vb.Read(p, worker, 0, hot)
				if err != nil {
					t.Fatalf("%s: value-bounded replica read: %v", step, err)
				}
				if got[0] != want0 || got[1] != 2 {
					t.Fatalf("%s: value-bounded replica read = %v, want [%v 2]", step, got, want0)
				}
			}
		}
		rates := func() []float64 {
			var out []float64
			for _, st := range vb.Replicas().stores {
				for _, cv := range st.sets[copyKey{0, mat.Part.ServerOf(0)}].vals {
					out = append(out, cv.rate)
				}
			}
			if len(out) != stores*len(hot) {
				t.Fatalf("found %d replica copies, want %d", len(out), stores*len(hot))
			}
			return out
		}
		before := m.Consistency
		readAll("first read", 1) // no copies: every store fetches
		if m.Consistency.ServedCached != before.ServedCached || m.Consistency.Revalidated != before.Revalidated {
			t.Fatalf("first read decided on copies it does not hold: %+v", m.Consistency)
		}
		for _, r := range rates() {
			if !math.IsInf(r, 1) {
				t.Fatalf("a fetched copy starts with rate %v, want unknown", r)
			}
		}
		mat.TickClock()
		before, changed := m.Consistency, m.Replica.ChangedVals
		readAll("after a tick", 1) // unknown rate over one clock: revalidate
		if got := m.Consistency.Revalidated - before.Revalidated; got != uint64(stores*len(hot)) {
			t.Fatalf("revalidated %d copies after the tick, want %d", got, stores*len(hot))
		}
		if m.Replica.ChangedVals != changed {
			t.Fatal("a frozen row shipped values on revalidation")
		}
		for _, r := range rates() {
			if r != 0 {
				t.Fatalf("unchanged revalidation learned rate %v, want 0", r)
			}
		}
		mat.TickClock()
		before = m.Consistency
		readAll("frozen", 1) // zero drift: served from copies
		if got := m.Consistency.ServedCached - before.ServedCached; got != uint64(stores*len(hot)) || m.Consistency.Revalidated != before.Revalidated {
			t.Fatalf("frozen row served %d copies, want %d with no revalidation: %+v", got, stores*len(hot), m.Consistency)
		}
		if m.Consistency.HardPulled != 0 {
			t.Fatalf("a replica copy was hard-pulled: %+v", m.Consistency)
		}
		mustOK(mat.PushAdd(p, worker, 0, must(linalg.NewSparse([]int{0}, []float64{2 * bound}))))
		mat.TickClock()
		if got := must(vb.Read(p, worker, 0, hot)); got[0] != 1+2*bound {
			t.Fatalf("read after a push past the bound = %v, want the owner's %v", got, 1+2*bound)
		}
	})
}

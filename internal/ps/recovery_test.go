package ps

import (
	"errors"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// Tests for the self-healing subsystem: heartbeat detection, automatic
// recovery, client retry across the handoff, delta checkpoints, and the
// loss-since-checkpoint edge cases.

func TestDetectorDetectsAndAutoRecovers(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 40)
		worker := cl.Executors[0]
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = float64(i)
		}
		MustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)

		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		crashAt := p.Now()
		m.CrashServer(1)
		if !m.Alive(1) {
			t.Error("CrashServer told the master; it must not (detection is the monitor's job)")
		}
		p.Sleep(5) // several heartbeat rounds: detect + recover

		if !m.Alive(1) {
			t.Fatal("server 1 not recovered by the monitor")
		}
		if m.Recovery.Detections != 1 {
			t.Fatalf("Detections = %d, want 1", m.Recovery.Detections)
		}
		if m.Recovery.Recoveries != 1 {
			t.Fatalf("Recoveries = %d, want 1", m.Recovery.Recoveries)
		}
		if m.Recovery.DetectLatencySum <= 0 {
			t.Fatalf("DetectLatencySum = %v, want > 0", m.Recovery.DetectLatencySum)
		}
		// Detection can't beat Misses consecutive missed heartbeats, and the
		// monitor checked within a few intervals of the crash.
		if lat := m.Recovery.MeanDetectLatency(); lat > 5 {
			t.Fatalf("detection latency %v implausibly large", lat)
		}
		if m.Recovery.RestoreBytes <= 0 {
			t.Fatalf("RestoreBytes = %v, want > 0 (checkpoint existed)", m.Recovery.RestoreBytes)
		}
		_ = crashAt

		row := Must(mat.PullRow(p, worker, 0))
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v after auto-recovery, want %v", c, v, vals[c])
			}
		}
	})
}

func TestInFlightOpBlocksUntilRecovery(t *testing.T) {
	// A pull issued while its server is dead spins in the retry loop and
	// completes once the monitor has recovered the server — the client never
	// sees the handoff.
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 30)
		worker := cl.Executors[0]
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = 2 * float64(i)
		}
		MustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)
		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		m.CrashServer(0)
		// Issue the pull immediately, mid-outage.
		row, err := mat.PullRow(p, worker, 0)
		if err != nil {
			t.Fatalf("pull across recovery: %v", err)
		}
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v, want %v", c, v, vals[c])
			}
		}
		if m.Recovery.Recoveries != 1 {
			t.Fatalf("Recoveries = %d, want 1", m.Recovery.Recoveries)
		}
	})
}

func TestErrServerDownAfterRetriesExhausted(t *testing.T) {
	sim, cl, m := testMaster(2)
	m.Retry = RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.01, MaxBackoffSec: 0.02, MaxRetries: 5}
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		m.CrashServer(0) // no monitor: nobody will ever recover it
		_, err := mat.PullRow(p, worker, 0)
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("err = %v, want ErrServerDown", err)
		}
	})
}

func TestMatrixCreatedAfterCheckpointZeroRestores(t *testing.T) {
	// Edge case: a matrix created after the last checkpoint has no snapshot;
	// recovery must reallocate its shard as zeros while restoring the
	// checkpointed matrix faithfully.
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		a, _ := m.CreateMatrix(p, 1, 20)
		ones := make([]float64, 20)
		linalg.Fill(ones, 1)
		MustOK(a.SetRow(p, worker, 0, ones))
		m.Checkpoint(p, a)

		b, _ := m.CreateMatrix(p, 1, 20)
		MustOK(b.SetRow(p, worker, 0, ones))

		m.KillServer(0)
		m.RecoverServer(p, 0)

		rowA := Must(a.PullRow(p, worker, 0))
		rowB := Must(b.PullRow(p, worker, 0))
		// Matrix a (Offset 0): logical shard 0 lives on server 0.
		lo, hi := a.Part.(*Partitioner).Range(0)
		for c := lo; c < hi; c++ {
			if rowA[c] != 1 {
				t.Errorf("a[%d] = %v, want checkpointed 1", c, rowA[c])
			}
		}
		// Matrix b (Offset 1): logical shard 1 lives on server 0.
		lo, hi = b.Part.(*Partitioner).Range(1)
		for c := lo; c < hi; c++ {
			if rowB[c] != 0 {
				t.Errorf("b[%d] = %v, want 0 (created after last checkpoint)", c, rowB[c])
			}
		}
		if m.Recovery.ZeroRestoredShards == 0 {
			t.Error("ZeroRestoredShards = 0, want at least 1")
		}
	})
}

func TestBackToBackServerFailures(t *testing.T) {
	// Two servers crash in sequence; the monitor must detect and recover both
	// without confusing their state.
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 40)
		worker := cl.Executors[0]
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = float64(i) + 1
		}
		MustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)
		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		m.CrashServer(1)
		p.Sleep(0.2)
		m.CrashServer(2) // second failure while the first is still undetected
		p.Sleep(8)

		if !m.Alive(1) || !m.Alive(2) {
			t.Fatalf("alive = %v/%v, want both recovered", m.Alive(1), m.Alive(2))
		}
		if m.Recovery.Detections != 2 || m.Recovery.Recoveries != 2 {
			t.Fatalf("detections/recoveries = %d/%d, want 2/2",
				m.Recovery.Detections, m.Recovery.Recoveries)
		}
		row := Must(mat.PullRow(p, worker, 0))
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v, want %v", c, v, vals[c])
			}
		}
	})
}

func TestUpdatesBetweenCheckpointAndCrashAreLost(t *testing.T) {
	// The paper's §5.3 failure model: a crash between Checkpoint and the next
	// one rolls the shard back to the checkpoint — updates since are lost,
	// and only on the crashed server's columns.
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		ones := make([]float64, 20)
		linalg.Fill(ones, 1)
		MustOK(mat.SetRow(p, worker, 0, ones))
		m.Checkpoint(p, mat)

		idx := make([]int, 20)
		tens := make([]float64, 20)
		for i := range idx {
			idx[i], tens[i] = i, 10
		}
		sv, _ := linalg.NewSparse(idx, tens)
		MustOK(mat.PushAdd(p, worker, 0, sv)) // now 11 everywhere

		m.KillServer(0)
		m.RecoverServer(p, 0)

		row := Must(mat.PullRow(p, worker, 0))
		lo, hi := mat.Part.(*Partitioner).Range(0)
		for c := range row {
			want := 11.0 // survivor kept the post-checkpoint push
			if c >= lo && c < hi {
				want = 1.0 // crashed shard rolled back to the checkpoint
			}
			if row[c] != want {
				t.Errorf("col %d = %v, want %v", c, row[c], want)
			}
		}
	})
}

func TestStatsMonotonicAcrossRecovery(t *testing.T) {
	// Satellite: the replacement machine starts with zeroed NIC counters, but
	// Stats must keep counting from where the old incarnation left off.
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		ones := make([]float64, 20)
		linalg.Fill(ones, 1)
		MustOK(mat.SetRow(p, worker, 0, ones))
		m.Checkpoint(p, mat)

		before := m.Stats()[0]
		if before.BytesSent <= 0 || before.BytesRecv <= 0 {
			t.Fatalf("no traffic before crash: %+v", before)
		}
		m.KillServer(0)
		m.RecoverServer(p, 0)
		after := m.Stats()[0]
		if after.BytesSent < before.BytesSent || after.BytesRecv < before.BytesRecv {
			t.Fatalf("stats went backwards across recovery: before %+v after %+v", before, after)
		}
		Must(mat.PullRow(p, worker, 0))
		final := m.Stats()[0]
		if final.BytesSent <= after.BytesSent {
			t.Fatalf("recovered server's traffic not accumulating: %v -> %v",
				after.BytesSent, final.BytesSent)
		}
	})
}

func TestDeltaCheckpointCheaperThanFull(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 4, 400)
		worker := cl.Executors[0]
		vals := make([]float64, 400)
		for i := range vals {
			vals[i] = float64(i)
		}
		for r := 0; r < 4; r++ {
			MustOK(mat.SetRow(p, worker, r, vals))
		}
		m.Checkpoint(p, mat) // base: full snapshot either way
		base := m.Recovery.CheckpointBytesWritten
		if base != m.Recovery.CheckpointBytesFull {
			t.Fatalf("first checkpoint should be full: wrote %v of %v",
				base, m.Recovery.CheckpointBytesFull)
		}

		// Touch a handful of elements, re-checkpoint: the delta should be a
		// small fraction of the snapshot.
		sv, _ := linalg.NewSparse([]int{0, 100, 399}, []float64{1, 1, 1})
		MustOK(mat.PushAdd(p, worker, 0, sv))
		m.Checkpoint(p, mat)
		delta := m.Recovery.CheckpointBytesWritten - base
		full := m.Recovery.CheckpointBytesFull - base
		if delta <= 0 || delta >= full/4 {
			t.Fatalf("second checkpoint wrote %v, want a small delta (full %v)", delta, full)
		}

		// And recovery still restores the full post-delta state.
		m.KillServer(0)
		m.RecoverServer(p, 0)
		row := Must(mat.PullRow(p, worker, 0))
		lo, hi := mat.Part.(*Partitioner).Range(0)
		for c := lo; c < hi; c++ {
			want := vals[c]
			if c == 0 || c == 100 || c == 399 {
				want++
			}
			if row[c] != want {
				t.Errorf("col %d = %v, want %v", c, row[c], want)
			}
		}
	})
}

func TestFullCheckpointsWhenDeltaDisabled(t *testing.T) {
	sim, cl, m := testMaster(2)
	m.DeltaCheckpoints = false
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 100)
		worker := cl.Executors[0]
		ones := make([]float64, 100)
		linalg.Fill(ones, 1)
		MustOK(mat.SetRow(p, worker, 0, ones))
		m.Checkpoint(p, mat)
		m.Checkpoint(p, mat) // unchanged, but ships full snapshots anyway
		if m.Recovery.CheckpointBytesWritten != m.Recovery.CheckpointBytesFull {
			t.Fatalf("wrote %v of %v with deltas disabled",
				m.Recovery.CheckpointBytesWritten, m.Recovery.CheckpointBytesFull)
		}
	})
}

func TestCheckpointSkipsDeadServer(t *testing.T) {
	// A checkpoint taken during an outage must keep the dead server's previous
	// snapshot as its recovery point, not wipe it.
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		ones := make([]float64, 20)
		linalg.Fill(ones, 1)
		MustOK(mat.SetRow(p, worker, 0, ones))
		m.Checkpoint(p, mat)

		m.KillServer(0)
		m.Checkpoint(p, mat) // server 0 is down: survivors checkpoint, 0 skipped
		m.RecoverServer(p, 0)

		row := Must(mat.PullRow(p, worker, 0))
		lo, hi := mat.Part.(*Partitioner).Range(0)
		for c := lo; c < hi; c++ {
			if row[c] != 1 {
				t.Errorf("col %d = %v, want 1 from the pre-crash snapshot", c, row[c])
			}
		}
	})
}

func TestManualKillAwaitsManualRecovery(t *testing.T) {
	// KillServer informs the master (alive=false); the monitor must leave it
	// for the manual RecoverServer path rather than racing it.
	sim, _, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		_, _ = m.CreateMatrix(p, 1, 30)
		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()
		m.KillServer(1)
		p.Sleep(5)
		if m.Alive(1) {
			t.Fatal("monitor auto-recovered a manually killed server")
		}
		if m.Recovery.Recoveries != 0 {
			t.Fatalf("Recoveries = %d, want 0", m.Recovery.Recoveries)
		}
		m.RecoverServer(p, 1)
		if !m.Alive(1) {
			t.Fatal("manual recovery failed")
		}
	})
}

func TestRecoveryUnderMessageLoss(t *testing.T) {
	// Detection and recovery must work when the network itself is lossy:
	// heartbeats and restore streams retry through drops.
	sim, cl, m := testMaster(3)
	sim.EnableChaos(99, 0.1)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 30)
		worker := cl.Executors[0]
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = float64(i)
		}
		MustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)
		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		m.CrashServer(2)
		p.Sleep(10)
		if !m.Alive(2) {
			t.Fatal("server 2 not recovered under message loss")
		}
		row, err := mat.PullRow(p, worker, 0)
		if err != nil {
			t.Fatalf("pull after lossy recovery: %v", err)
		}
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v, want %v", c, v, vals[c])
			}
		}
	})
}

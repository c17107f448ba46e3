// Package core assembles the PS2 system: it boots a simulated cluster, a
// Spark-like dataflow application (internal/rdd) and a parameter-server
// application (internal/ps) side by side — two separate applications, as in
// the paper's Section 5.1 — and exposes a DCV session (internal/dcv) over the
// servers. An Engine is what user programs, examples and benchmarks create;
// training jobs run as the driver process of the simulation and use RDD
// operators for data parallelism and DCV operators for model management.
package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dcv"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Options configures an engine. The zero value is not valid; use
// DefaultOptions and override.
type Options struct {
	Executors int
	Servers   int
	Node      simnet.NodeConfig
	Cost      cluster.CostModel

	// TaskFailProb injects task-attempt failures into the dataflow scheduler
	// (Fig 13(c)).
	TaskFailProb float64
	// Seed seeds the scheduler's failure injection.
	Seed uint64

	// Faults schedules environment-injected failures (machine crashes at
	// virtual times, message loss, extra delay). Setting it arms the chaos
	// layer and, unless Detector overrides, the default heartbeat failure
	// detector with automatic recovery.
	Faults *FaultPlan

	// Detector overrides the heartbeat failure detector. Zero value: the
	// detector runs with defaults when Faults is set, and not at all
	// otherwise. Set IntervalSec > 0 to force it on.
	Detector ps.DetectorConfig

	// RPC overrides the client retry policy (zero fields take defaults).
	RPC ps.RetryConfig

	// FullCheckpoints disables delta checkpointing, shipping full snapshots
	// on every Checkpoint (the ablation arm of the recovery benchmark).
	FullCheckpoints bool

	// Trace enables the span tracer: RPCs, server ops, fused batches, tasks
	// and recovery activity are recorded as structured spans, exportable as a
	// Chrome/Perfetto trace (Engine.Tracer, obs.WriteChrome) and folded into
	// Snapshot's phase breakdown. Off by default; the disabled path costs one
	// nil check per instrumentation site.
	Trace bool
}

// CrashEvent schedules the crash of one machine (by role-local index) at a
// virtual time.
type CrashEvent struct {
	AtSec float64
	Index int
}

// chaosSeed drives the chaos layer's loss and delay draws, so a fault plan's
// run is reproducible.
const chaosSeed = 0xfa17

// FaultPlan describes the environment's misbehaviour for a run: scheduled
// PS-server and executor crashes, ambient per-message loss, and per-link
// loss and delay.
// Crashes land mid-simulation — in the middle of whatever RPCs are in
// flight — and nothing in the job's code is told about them; detection and
// recovery are the system's problem.
type FaultPlan struct {
	// LossProb is the probability that any single message is dropped.
	LossProb float64

	ServerCrashes   []CrashEvent
	ExecutorCrashes []CrashEvent

	// LinkFaults schedules per-link chaos overrides (targeted loss/delay on
	// server↔server routes — e.g. the stream path of an elastic migration).
	LinkFaults []LinkFault
}

// LinkFault schedules a per-link chaos override: from AtSec on, messages from
// server Src to server Dst are dropped with probability LossProb and delayed
// by up to DelaySec extra. Src/Dst are server-role indices, resolved to
// machines when the fault fires — so links to servers that join via elastic
// scale-out after the plan was written can still be targeted.
type LinkFault struct {
	AtSec    float64
	Src, Dst int
	LossProb float64
	DelaySec float64
}

// DefaultOptions mirrors the paper's common setup: 20 executors, 20 servers.
func DefaultOptions() Options {
	cfg := cluster.DefaultConfig()
	return Options{
		Executors: cfg.Executors,
		Servers:   cfg.Servers,
		Node:      cfg.Node,
		Cost:      cfg.Cost,
		Seed:      1,
	}
}

// Engine is one PS2 application instance.
type Engine struct {
	Sim     *simnet.Sim
	Cluster *cluster.Cluster
	RDD     *rdd.Context
	PS      *ps.Master
	DCV     *dcv.Session

	faults   *FaultPlan
	detector ps.DetectorConfig
	monitor  bool
}

// NewEngine boots the cluster and both applications.
func NewEngine(opt Options) *Engine {
	sim := simnet.New()
	cl := cluster.New(sim, cluster.Config{
		Executors: opt.Executors,
		Servers:   opt.Servers,
		Node:      opt.Node,
		Cost:      opt.Cost,
	})
	ctx := rdd.NewContext(cl)
	ctx.FailProb = opt.TaskFailProb
	if opt.Seed != 0 {
		ctx.Seed(opt.Seed)
	}
	master := ps.NewMaster(cl)
	if opt.RPC != (ps.RetryConfig{}) {
		master.Retry = opt.RPC
	}
	master.DeltaCheckpoints = !opt.FullCheckpoints
	detector := opt.Detector
	if detector == (ps.DetectorConfig{}) {
		// A wholly unset detector config means "the defaults", not
		// "detect but never recover".
		detector = ps.DefaultDetectorConfig()
	}
	if opt.Faults != nil {
		sim.EnableChaos(chaosSeed, opt.Faults.LossProb)
		master.Unreliable = true
	}
	if opt.Trace {
		sim.EnableTrace()
	}
	return &Engine{
		Sim:      sim,
		Cluster:  cl,
		RDD:      ctx,
		PS:       master,
		DCV:      dcv.NewSession(master),
		faults:   opt.Faults,
		detector: detector,
		monitor:  opt.Faults != nil || opt.Detector.IntervalSec > 0,
	}
}

// Run executes job as the driver process and runs the simulation to
// completion, returning the virtual time at which the job finished. If the
// engine has a fault plan, the chaos controller and the heartbeat failure
// detector run alongside the job and are shut down when it completes.
func (e *Engine) Run(job func(p *simnet.Proc)) simnet.Time {
	var end simnet.Time
	stop := e.Sim.NewSignal()
	if e.faults != nil {
		plan := &simnet.FaultPlan{}
		for _, ev := range e.faults.ServerCrashes {
			ev := ev
			plan.Actions = append(plan.Actions, simnet.FaultAction{
				At:   ev.AtSec,
				Name: fmt.Sprintf("crash-server-%d", ev.Index),
				Do:   func() { e.PS.CrashServer(ev.Index) },
			})
		}
		for _, ev := range e.faults.ExecutorCrashes {
			ev := ev
			plan.Actions = append(plan.Actions, simnet.FaultAction{
				At:   ev.AtSec,
				Name: fmt.Sprintf("crash-executor-%d", ev.Index),
				Do:   func() { e.RDD.CrashExecutor(ev.Index) },
			})
		}
		for _, lf := range e.faults.LinkFaults {
			lf := lf
			plan.Actions = append(plan.Actions, simnet.FaultAction{
				At:   lf.AtSec,
				Name: fmt.Sprintf("link-fault-%d-%d", lf.Src, lf.Dst),
				Do: func() {
					c := e.Sim.Chaos()
					srvs := e.Cluster.Servers
					if c == nil || lf.Src >= len(srvs) || lf.Dst >= len(srvs) {
						return
					}
					c.SetLinkLoss(srvs[lf.Src].ID, srvs[lf.Dst].ID, lf.LossProb)
					if lf.DelaySec > 0 {
						c.SetLinkDelay(srvs[lf.Src].ID, srvs[lf.Dst].ID, simnet.Time(lf.DelaySec))
					}
				},
			})
		}
		e.Sim.StartFaultPlan(plan, stop)
	}
	if e.monitor {
		e.PS.StartMonitor(e.detector)
	}
	e.Sim.Spawn("driver", func(p *simnet.Proc) {
		job(p)
		end = p.Now()
		stop.Fire()
		e.PS.StopMonitor()
	})
	e.Sim.Run()
	return end
}

// Snapshot gathers every end-of-run statistic into one structured report:
// communication (RPC counters, per-role NIC bytes, chaos drops), the
// self-healing subsystem, operator fusion, the serving tier (reads, snapshot
// pins, admission queueing/shedding), and — when the run was traced — the
// span-derived phase breakdown. It is the single reporting entry point.
func (e *Engine) Snapshot() obs.Snapshot {
	const mb = 1e6
	s := obs.Snapshot{
		WallSec: float64(e.Sim.Now()),
		Events:  e.Sim.EventsProcessed(),
		Net: obs.NetSnapshot{
			RPCCalls:     e.PS.Net.Calls,
			RPCAttempts:  e.PS.Net.Attempts,
			DedupHits:    e.PS.Net.DedupHits,
			DedupPruned:  e.PS.Net.DedupPruned,
			TransportMB:  e.PS.Net.Bytes / mb,
			DriverSentMB: e.Cluster.Driver.BytesSent / mb,
			DriverRecvMB: e.Cluster.Driver.BytesRecv / mb,
		},
		Recovery: e.PS.Recovery,
		Fusion: obs.FusionSnapshot{
			Batches:  e.PS.Net.Batches,
			FusedOps: e.PS.Net.FusedOps,
		},
		Cache:       e.PS.Cache,
		Consistency: e.PS.ConsistencyReport(),
		Migration:   e.PS.Migration,
		Serve:       e.PS.Serve,
	}
	if c := e.Sim.Chaos(); c != nil {
		s.Net.MessagesLost = c.MessagesLost
	}
	load := e.PS.LoadReport()
	s.Load.Ops = make([]float64, len(load))
	s.Load.Bytes = make([]float64, len(load))
	for i, l := range load {
		s.Load.Ops[i] = float64(l.Ops)
		s.Load.Bytes[i] = l.Bytes
	}
	for _, n := range e.Cluster.Executors {
		s.Net.ExecutorSentMB += n.BytesSent / mb
		s.Net.ExecutorRecvMB += n.BytesRecv / mb
		s.Phases.ExecutorCoreSec += n.WorkDone / n.WorkRate()
	}
	for _, n := range e.Cluster.Servers {
		s.Net.ServerSentMB += n.BytesSent / mb
		s.Net.ServerRecvMB += n.BytesRecv / mb
		s.Phases.ServerCoreSec += n.WorkDone / n.WorkRate()
	}
	for _, n := range e.Cluster.Retired {
		// Servers scaled in mid-run still did work while they were members.
		s.Net.ServerSentMB += n.BytesSent / mb
		s.Net.ServerRecvMB += n.BytesRecv / mb
		s.Phases.ServerCoreSec += n.WorkDone / n.WorkRate()
	}
	if t := e.Sim.Tracer(); t != nil {
		s.Phases.Traced = true
		s.Phases.PhaseBreakdown = t.Phases()
	}
	return s
}

// Tracer returns the engine's span tracer, or nil when Options.Trace was off.
func (e *Engine) Tracer() *obs.Tracer { return e.Sim.Tracer() }

// Driver returns the coordinator machine (the Spark driver, which also hosts
// the PS-master).
func (e *Engine) Driver() *simnet.Node { return e.Cluster.Driver }

// Trace is a convergence curve: (virtual time, metric) samples appended as
// training progresses. Experiments compare systems by the time each trace
// needs to reach a target metric, exactly how the paper reads its loss
// figures.
type Trace struct {
	Name   string
	Times  []float64
	Values []float64
}

// Add appends one sample.
func (t *Trace) Add(time, value float64) {
	t.Times = append(t.Times, time)
	t.Values = append(t.Values, value)
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Times) }

// Final returns the last metric value, or NaN when empty.
func (t *Trace) Final() float64 {
	if len(t.Values) == 0 {
		return math.NaN()
	}
	return t.Values[len(t.Values)-1]
}

// TimeToReach returns the first virtual time at which the metric dropped to
// target or below, or +Inf if it never did.
func (t *Trace) TimeToReach(target float64) float64 {
	for i, v := range t.Values {
		if v <= target {
			return t.Times[i]
		}
	}
	return math.Inf(1)
}

// Best returns the minimum metric value seen, or NaN when empty.
func (t *Trace) Best() float64 {
	if len(t.Values) == 0 {
		return math.NaN()
	}
	best := t.Values[0]
	for _, v := range t.Values[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// String renders a compact summary.
func (t *Trace) String() string {
	if t.Len() == 0 {
		return fmt.Sprintf("%s: empty", t.Name)
	}
	return fmt.Sprintf("%s: %d samples, final=%.4f at t=%.1fs", t.Name, t.Len(), t.Final(), t.Times[len(t.Times)-1])
}

// Downsample returns up to n evenly spaced samples (for printing curves).
// The first and last samples are always kept — the final value is what
// convergence tables read — with the interior points spread evenly between
// them, whether or not n divides the trace length.
func (t *Trace) Downsample(n int) *Trace {
	if t.Len() <= n || n < 2 {
		return t
	}
	out := &Trace{Name: t.Name}
	last := t.Len() - 1
	for i := 0; i < n-1; i++ {
		j := i * last / (n - 1)
		out.Add(t.Times[j], t.Values[j])
	}
	out.Add(t.Times[last], t.Values[last])
	return out
}

// CommonTarget picks a loss target both traces reach: slightly above the
// worse of the two best losses. Used by experiments to compare convergence
// fairly when systems plateau at different levels.
func CommonTarget(traces ...*Trace) float64 {
	worst := math.Inf(-1)
	for _, t := range traces {
		if b := t.Best(); b > worst {
			worst = b
		}
	}
	return worst * 1.02
}

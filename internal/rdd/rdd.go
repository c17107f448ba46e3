// Package rdd is a from-scratch miniature of Spark's execution model, built
// on the simnet kernel: one driver process schedules parallel tasks over
// partitioned, immutable, lazily-computed datasets that live on executor
// machines. It reproduces the properties of Spark that the PS2 paper depends
// on — driver-side aggregation (the "single-node bottleneck"), broadcast from
// the driver, global barriers after each stage, lineage-based recomputation
// after executor loss, and task retry after transient failures — without any
// of Spark's code.
//
// The package is deliberately small: it implements exactly the surface MLlib
// -style training loops and PS2 jobs need (sources, map, sample, cache,
// runPartitions, aggregate/treeAggregate/collect/count, reduceByKey,
// broadcast).
//
// A stage returns every task's result or one error. An attempt lost to its
// executor's death or to injected failure is retried, up to
// Context.MaxAttempts; an error a task body returns fails the stage without a
// retry (runTasks states the rule).
package rdd

import (
	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// Context owns scheduling state for one application: the cluster it runs on,
// failure-injection knobs, and the registry of cached datasets (so executor
// loss can invalidate their partitions).
type Context struct {
	Cl *cluster.Cluster

	// FailProb is the probability that any single task attempt fails at its
	// commit point (used by the Fig 13(c) fault-tolerance experiment).
	FailProb float64
	// MaxAttempts is how many attempts a task gets, 4 as in Spark
	// (spark.task.maxFailures), before its stage fails with ErrTaskAttempts.
	// Only an attempt lost to its executor's death or to injected failure is
	// retried; an error the task body returns fails the stage at once.
	MaxAttempts int

	failSeed    uint64
	nextID      int
	invalidator []func(executor int)
	deadExec    []bool

	// TasksLaunched and TaskFailures count scheduling activity for tests and
	// experiment reports; ExecutorCrashes/ExecutorFailures count injected
	// executor deaths and the task attempts they took down.
	TasksLaunched    int
	TaskFailures     int
	ExecutorCrashes  int
	ExecutorFailures int
}

// NewContext creates an application context on cl with failure injection off.
func NewContext(cl *cluster.Cluster) *Context {
	return &Context{Cl: cl, MaxAttempts: 4, failSeed: 0x5eed, deadExec: make([]bool, len(cl.Executors))}
}

// Seed reseeds the scheduler's failure injection. Doomed-task draws are
// derived from (seed, dataset, partition, attempt), so fault placement is a
// pure function of the task's identity — stable when unrelated stages are
// added or removed.
func (c *Context) Seed(seed uint64) { c.failSeed = seed }

// doomedDraw decides whether one task attempt is doomed to fail at its
// commit point.
func (c *Context) doomedDraw(dataset, part, attempt int) bool {
	if c.FailProb <= 0 {
		return false
	}
	mix := c.failSeed ^ (uint64(dataset)*0x9E3779B97F4A7C15 +
		uint64(part)*0xC2B2AE3D27D4EB4F + uint64(attempt)*0x165667B19E3779F9)
	return linalg.NewRNG(mix).Float64() < c.FailProb
}

// NumExecutors returns the number of executor machines.
func (c *Context) NumExecutors() int { return len(c.Cl.Executors) }

// ownerIndex returns the executor slot hosting partition part: its home slot
// part mod N, or — when that executor is dead — the next live slot in probing
// order, which is how the scheduler reassigns a lost executor's partitions to
// the survivors.
func (c *Context) ownerIndex(part int) int {
	n := len(c.Cl.Executors)
	home := part % n
	for k := 0; k < n; k++ {
		i := (home + k) % n
		if !c.deadExec[i] {
			return i
		}
	}
	panic("rdd: every executor is dead; no machine can host tasks")
}

// Owner returns the executor machine that hosts partition part.
func (c *Context) Owner(part int) *simnet.Node {
	return c.Cl.Executors[c.ownerIndex(part)]
}

// KillExecutor simulates the loss of executor i's *storage*: every cached
// partition it hosted is dropped, so the next access recomputes it from
// lineage, exactly like Spark reloading a lost partition from stable input.
// The machine itself stays schedulable — use CrashExecutor for a full
// machine death.
func (c *Context) KillExecutor(i int) {
	for _, inv := range c.invalidator {
		inv(i)
	}
}

// CrashExecutor kills executor machine i outright, mid-stage: its cached
// partitions are dropped for lineage recomputation, its in-flight task
// attempts die (their PS requests abort with a node-down error and the
// driver reschedules them), and every partition it hosted is reassigned to
// the surviving executors. The machine is never brought back — as in Spark,
// the application simply continues on the survivors.
func (c *Context) CrashExecutor(i int) {
	if c.deadExec[i] {
		return
	}
	// Invalidate caches against the pre-death partition mapping, so exactly
	// the partitions this machine was hosting are recomputed.
	for _, inv := range c.invalidator {
		inv(i)
	}
	c.deadExec[i] = true
	c.Cl.Executors[i].Fail()
	c.ExecutorCrashes++
}

// ExecutorAlive reports whether executor slot i is schedulable.
func (c *Context) ExecutorAlive(i int) bool { return !c.deadExec[i] }

// RDD is a partitioned, immutable, lazily-evaluated dataset of T.
type RDD[T any] struct {
	ctx     *Context
	id      int
	parts   int
	compute func(tc *TaskContext, part int) []T

	cache bool
	data  [][]T
	valid []bool
}

func newRDD[T any](ctx *Context, parts int, compute func(tc *TaskContext, part int) []T) *RDD[T] {
	ctx.nextID++
	return &RDD[T]{ctx: ctx, id: ctx.nextID, parts: parts, compute: compute}
}

// Partitions returns the number of partitions.
func (r *RDD[T]) Partitions() int { return r.parts }

// Cache marks the dataset to be kept in executor memory after first
// materialization. Returns r for chaining.
func (r *RDD[T]) Cache() *RDD[T] {
	if r.cache {
		return r
	}
	r.cache = true
	r.data = make([][]T, r.parts)
	r.valid = make([]bool, r.parts)
	r.ctx.invalidator = append(r.ctx.invalidator, func(executor int) {
		for part := 0; part < r.parts; part++ {
			// ownerIndex (not part mod N) so partitions remapped onto this
			// executor by an earlier crash are also invalidated.
			if r.ctx.ownerIndex(part) == executor {
				r.valid[part] = false
				r.data[part] = nil
			}
		}
	})
	return r
}

// materialize produces the rows of one partition, reusing the cache when
// valid and recomputing from lineage otherwise.
func (r *RDD[T]) materialize(tc *TaskContext, part int) []T {
	if r.cache && r.valid[part] {
		return r.data[part]
	}
	rows := r.compute(tc, part)
	if r.cache {
		r.data[part] = rows
		r.valid[part] = true
	}
	return rows
}

// Source creates a base dataset whose partitions are produced by gen, which
// stands in for stable input storage (HDFS in the paper). gen must be
// deterministic in part and should charge load cost through tc.
func Source[T any](ctx *Context, parts int, gen func(tc *TaskContext, part int) []T) *RDD[T] {
	if parts < 1 {
		parts = 1
	}
	return newRDD(ctx, parts, gen)
}

// FromSlices creates a base dataset from in-memory partitions (test helper
// and small-example convenience; charges no load cost).
func FromSlices[T any](ctx *Context, parts [][]T) *RDD[T] {
	copied := make([][]T, len(parts))
	for i := range parts {
		copied[i] = append([]T(nil), parts[i]...)
	}
	return Source(ctx, len(copied), func(_ *TaskContext, part int) []T {
		return copied[part]
	})
}

// Map applies f to every element. Narrow dependency; no shuffle.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(r.ctx, r.parts, func(tc *TaskContext, part int) []U {
		in := r.materialize(tc, part)
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out
	})
}

// Sample takes a Bernoulli sample of the dataset with the given fraction.
// The draw is deterministic in (seed, partition), so different seeds give
// different mini-batches while reruns of a failed task resample identically —
// the same guarantee Spark's sampled RDDs provide.
func (r *RDD[T]) Sample(fraction float64, seed uint64) *RDD[T] {
	if fraction >= 1 {
		return r
	}
	return newRDD(r.ctx, r.parts, func(tc *TaskContext, part int) []T {
		return Bernoulli(r.materialize(tc, part), fraction, linalg.NewRNG(seed*1_000_003+uint64(part)))
	})
}

// Bernoulli keeps each row with probability fraction, one rng.Float64 a row
// in order; at fraction 1 or more it returns rows as they are.
func Bernoulli[T any](rows []T, fraction float64, rng *linalg.RNG) []T {
	if fraction >= 1 {
		return rows
	}
	out := make([]T, 0, int(float64(len(rows))*fraction)+1)
	for _, v := range rows {
		if rng.Float64() < fraction {
			out = append(out, v)
		}
	}
	return out
}

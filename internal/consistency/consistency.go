// Package consistency is the freshness decision layer of the parameter
// server: one Policy interface answering the single question every caching
// tier keeps re-asking — "may this cached value be served, must it be
// revalidated against its owner, or should it be refetched outright?"
//
// Its callers are the two copy stores, the worker cache and the hot-replica
// set (which also answers serving reads); each builds a Meta — the facts it
// knows about one cached value — and lets a policy decide. The worker cache
// takes its Policy as its one freshness knob; the replica set always runs
// ClockBounded(0). The SSP gate holds no copies and compares
// its clocks directly. The policies implement the consistency-model
// spectrum of Dai et al. (VLDB 2015):
//
//   - ClockBounded: Stale Synchronous Parallel. A value validated at clock c
//     serves until clock c+staleness, then revalidates. ClockBounded(0) is
//     the worker cache's default (a nil Policy) and the hot replicas' fixed
//     policy: it never consults delta magnitudes and never hard-pulls.
//
//   - ValueBounded: Value-bounded Asynchronous Parallel (VAP). A value
//     serves until the accumulated |delta| against it plausibly exceeds a
//     bound — locally-known flushed push magnitudes (Meta.Pushed) count
//     exactly, remote writes ride a learned drift-rate estimate
//     (Meta.Drift). Once local pushes alone exceed the bound the value
//     cannot validate, so the policy hard-pulls and skips the stamp bytes.
//
//   - Adaptive: ValueBounded whose bound breathes with training. An EWMA of
//     observed push magnitudes (ObserveDelta, fed by the write-combining
//     flush path and the trainers) tightens the effective bound while
//     gradients are large — early training, where staleness hurts most —
//     and relaxes it toward the base bound as the run converges, the same
//     shape as the PushBuffer's auto-flush tuner.
//
// Policies are host-side bookkeeping: deciding costs no virtual time or
// bytes; only the RPCs a decision triggers are charged. A Policy value is
// not safe for concurrent use from real OS threads, but simulated tasks
// interleave only at scheduler yield points, so sharing one policy across a
// job's workers is fine — and is what makes Adaptive's bound global to the
// run rather than per machine.
package consistency

import (
	"fmt"
	"math"
)

// Decision is a policy's verdict on one cached value.
type Decision uint8

const (
	// ServeCached: the value is fresh enough — serve it with no RPC.
	ServeCached Decision = iota
	// Revalidate: ask the owner if-modified-since; unchanged values cost
	// framing and a stamp, only changed values ship.
	Revalidate
	// HardPull: the value is known-stale beyond doubt — refetch it without
	// paying the validation stamp, as if it were not cached at all.
	HardPull
)

func (d Decision) String() string {
	switch d {
	case ServeCached:
		return "serve-cached"
	case Revalidate:
		return "revalidate"
	case HardPull:
		return "hard-pull"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// Meta is what a caller knows about one cached value when it asks for a
// decision. Callers fill what they track; unknown fields stay zero.
type Meta struct {
	// CachedClock is the clock at which the value was last known current
	// (validated or fetched); CurrentClock is the observer's clock now.
	CachedClock  int64
	CurrentClock int64

	// Pushed is the accumulated |delta| of writes the holder knows of against
	// the value since it was last validated — exact: a worker observes its
	// own flushed pushes (PushBuffer flushes, trainer credit calls), and a
	// copy held on a server reads its owner's exact row drift.
	Pushed float64

	// Drift is the caller's estimate of the |delta| remote writers have
	// accumulated since validation, typically rate×elapsed from an EWMA of
	// changes observed at past revalidations. +Inf means "no estimate yet":
	// value-bounded policies revalidate until they have seen one.
	Drift float64
}

// Staleness returns the value's age in clocks.
func (m Meta) Staleness() int64 { return m.CurrentClock - m.CachedClock }

// Policy decides, per cached value, whether reading it may skip the wire.
type Policy interface {
	// Name identifies the policy in reports ("clock", "value", "adaptive").
	Name() string
	// Admit returns the decision for one cached value.
	Admit(m Meta) Decision
	// ObserveDelta feeds the policy one observed write magnitude (a flushed
	// push, a trainer's step estimate). Policies that don't adapt ignore it.
	ObserveDelta(mag float64)
	// UsesDeltas reports whether Admit consults Meta.Pushed/Meta.Drift, so
	// callers can skip delta accounting entirely — the clock-bounded
	// bit-identity guarantee rests on this being false for ClockBounded.
	UsesDeltas() bool
}

// ---------------------------------------------------------------------------
// ClockBounded

// ClockBounded is SSP freshness: serve values at most Staleness clocks old,
// revalidate everything older. It never hard-pulls.
type ClockBounded struct {
	Staleness int64
}

// NewClockBounded returns a clock-bounded policy; negative staleness clamps
// to 0 (BSP-exact), as SSPClock's staleness does.
func NewClockBounded(staleness int) *ClockBounded {
	if staleness < 0 {
		staleness = 0
	}
	return &ClockBounded{Staleness: int64(staleness)}
}

func (c *ClockBounded) Name() string { return "clock" }

// Admit serves values within the staleness bound and revalidates the rest —
// exactly the comparison the cache layers used to inline.
func (c *ClockBounded) Admit(m Meta) Decision {
	if m.Staleness() <= c.Staleness {
		return ServeCached
	}
	return Revalidate
}

func (c *ClockBounded) ObserveDelta(float64) {}
func (c *ClockBounded) UsesDeltas() bool     { return false }

// ---------------------------------------------------------------------------
// ValueBounded

// ValueBounded is VAP freshness: serve a value while the accumulated |delta|
// against it stays within Bound, regardless of its age in clocks. Local push
// magnitudes count exactly; remote drift rides the caller's estimate. The
// enforcement is approximate on the estimated side (that is the policy's
// trade — see the package comment), exact for locally-pushed deltas and for
// server-certified validations (the dense cache path).
type ValueBounded struct {
	Bound float64
}

// NewValueBounded returns a value-bounded policy. bound <= 0 means "any
// change matters": everything revalidates, locally-dirtied values hard-pull.
func NewValueBounded(bound float64) *ValueBounded {
	return &ValueBounded{Bound: bound}
}

func (v *ValueBounded) Name() string { return "value" }

func (v *ValueBounded) Admit(m Meta) Decision { return admitBounded(m, v.Bound) }

func (v *ValueBounded) ObserveDelta(float64) {}
func (v *ValueBounded) UsesDeltas() bool     { return true }

// admitBounded is the shared value-bounded verdict: hard-pull when local
// pushes alone bust the bound (a validation stamp could never match, so skip
// its bytes), revalidate when pushes plus estimated remote drift might, and
// serve otherwise. An unknown drift estimate (+Inf) always revalidates.
func admitBounded(m Meta, bound float64) Decision {
	if m.Pushed > bound {
		return HardPull
	}
	if m.Pushed+m.Drift > bound {
		return Revalidate
	}
	return ServeCached
}

// ---------------------------------------------------------------------------
// Adaptive

// Adaptive is ValueBounded with a breathing bound: an EWMA of observed write
// magnitudes scales the effective bound as
//
//	eff = Base² / (Base + ewma)
//
// so eff → Base as writes shrink (converged: relax, serve more from cache)
// and eff → Base²/ewma « Base while writes are large (early training:
// tighten, stay close to the owners). Deterministic given a deterministic
// observation sequence — the decision counters of two identical runs match
// byte for byte, which TestAdaptiveDeterminism pins.
type Adaptive struct {
	base  float64
	alpha float64

	ewma   float64
	seeded bool
	eff    float64
	stats  AdaptiveStats
}

// AdaptiveStats counts the bound's movements.
type AdaptiveStats struct {
	Observations uint64 // ObserveDelta calls absorbed
	Tightenings  uint64 // recomputes that shrank the effective bound
	Relaxations  uint64 // recomputes that grew it
}

// adaptiveAlpha is the EWMA smoothing factor, matching the PushBuffer
// auto-flush tuner's 1/4 blend.
const adaptiveAlpha = 0.25

// NewAdaptive returns an adaptive policy around the given base bound; the
// effective bound starts at base (no observations yet) and must stay
// positive.
func NewAdaptive(base float64) *Adaptive {
	if base <= 0 || math.IsInf(base, 0) || math.IsNaN(base) {
		panic(fmt.Sprintf("consistency: Adaptive base bound must be a positive finite value, got %g", base))
	}
	return &Adaptive{base: base, alpha: adaptiveAlpha, eff: base}
}

func (a *Adaptive) Name() string { return "adaptive" }

func (a *Adaptive) Admit(m Meta) Decision { return admitBounded(m, a.eff) }

// ObserveDelta absorbs one write magnitude and recomputes the effective
// bound, counting the direction it moved.
func (a *Adaptive) ObserveDelta(mag float64) {
	if math.IsNaN(mag) || math.IsInf(mag, 0) {
		return
	}
	if mag < 0 {
		mag = -mag
	}
	if !a.seeded {
		a.ewma = mag
		a.seeded = true
	} else {
		a.ewma = (1-a.alpha)*a.ewma + a.alpha*mag
	}
	old := a.eff
	a.eff = a.base * a.base / (a.base + a.ewma)
	a.stats.Observations++
	switch {
	case a.eff < old:
		a.stats.Tightenings++
	case a.eff > old:
		a.stats.Relaxations++
	}
}

func (a *Adaptive) UsesDeltas() bool { return true }

// EffectiveBound returns the current bound Admit enforces.
func (a *Adaptive) EffectiveBound() float64 { return a.eff }

// Stats returns the bound-movement counters.
func (a *Adaptive) Stats() AdaptiveStats { return a.stats }

// ---------------------------------------------------------------------------
// Drift estimation helper

// DriftEstimate turns a learned per-clock change rate into a Meta.Drift
// value: rate×elapsed, with the two edge cases pinned — zero elapsed means
// nothing can have drifted yet (even under an unknown +Inf rate), and an
// unknown rate over any positive elapsed stays unknown (+Inf, forcing
// revalidation until the first observation).
func DriftEstimate(rate float64, elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	if math.IsInf(rate, 1) {
		return math.Inf(1)
	}
	return rate * float64(elapsed)
}

// BlendRate folds one observed change magnitude over an elapsed interval
// into a per-clock rate estimate: the first observation replaces the +Inf
// seed outright, later ones blend 3:1 like the repo's other EWMA tuners.
// elapsed <= 0 returns the rate unchanged (no interval, no information).
func BlendRate(rate, observedMag float64, elapsed int64) float64 {
	if elapsed <= 0 {
		return rate
	}
	if observedMag < 0 {
		observedMag = -observedMag
	}
	obs := observedMag / float64(elapsed)
	if math.IsInf(rate, 1) {
		return obs
	}
	return 0.75*rate + 0.25*obs
}

// UnknownRate is the drift-rate seed for a value with no observation history.
func UnknownRate() float64 { return math.Inf(1) }

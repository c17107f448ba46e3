package simnet

// This file is the kernel's chaos layer: machine up/down state, per-link
// message loss and extra delay, a fallible send primitive (TrySend, whose
// checks run in the transfer steps of node.go), and a
// FaultPlan controller that fires crash actions at scheduled virtual times.
// Together they let the *environment* inject failures mid-RPC — the substrate
// for the parameter server's heartbeat failure detector and automatic
// recovery, and for the dataflow engine's executor-loss rescheduling.

import (
	"errors"
	"sort"

	"repro/internal/obs"
)

// ErrNodeDown is returned by TrySend when the sender's machine is down or the
// destination is down at delivery time. Callers treat it as "peer crashed":
// back off and retry (server side) or abort the attempt (client side).
var ErrNodeDown = errors.New("simnet: node is down")

// ErrMsgLost is returned by TrySend when the chaos layer drops the message.
// The sender has already paid the serialization and propagation time; a real
// client would now wait out a timeout before retrying.
var ErrMsgLost = errors.New("simnet: message lost")

// Up reports whether the machine is serving. New nodes start up; Fail takes
// them down and Restore brings them back.
func (n *Node) Up() bool { return !n.down }

// Fail marks the machine as crashed. In-flight transfers finish serializing
// but are not delivered (TrySend checks liveness at delivery time), and all
// subsequent TrySends to or from the node error with ErrNodeDown. State on
// the machine (parameter shards, cached partitions) is the owner's problem —
// the kernel only models reachability.
func (n *Node) Fail() { n.down = true }

// Restore brings a failed machine back up. Counters and queued resource
// state are preserved; higher layers that model replacement machines should
// create a fresh Node instead.
func (n *Node) Restore() { n.down = false }

// TrySend is Send with failure semantics: it transfers bytes from n to dst
// and reports whether they were delivered. The sender pays egress
// serialization and propagation even when delivery fails (the bytes left the
// NIC); ErrNodeDown means a crashed endpoint, ErrMsgLost a chaos drop.
// Receive-side counters only advance on delivery.
func (n *Node) TrySend(p *Proc, dst *Node, bytes float64) error {
	n.transfer(p, dst, bytes, true, nil)
	p.wait()
	return p.err
}

// Chaos holds the simulation's link-fault configuration: a default
// per-message loss probability, per-link loss overrides and per-link maximum
// extra delays. All draws come from one seeded generator, so a chaos run is as
// deterministic as a clean one.
type Chaos struct {
	s0, s1      uint64 // xorshift128+ state
	defaultLoss float64
	linkLoss    map[[2]int]float64
	linkDelay   map[[2]int]Time // max uniform extra one-way delay

	// MessagesLost counts chaos drops (observability).
	MessagesLost uint64
}

// EnableChaos installs a chaos configuration on the simulation and returns
// it for per-link tuning. lossProb is the default probability that any
// TrySend message is dropped; extra delay is per link (SetLinkDelay). Plain
// Send ignores chaos entirely.
func (s *Sim) EnableChaos(seed uint64, lossProb float64) *Chaos {
	c := &Chaos{
		defaultLoss: clamp01(lossProb),
		linkLoss:    map[[2]int]float64{},
		linkDelay:   map[[2]int]Time{},
	}
	// splitmix64 expansion of the seed, mirroring linalg.NewRNG.
	z := seed
	next := func() uint64 {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	c.s0, c.s1 = next(), next()
	if c.s0 == 0 && c.s1 == 0 {
		c.s0 = 1
	}
	s.chaos = c
	return c
}

// Chaos returns the installed chaos configuration, or nil.
func (s *Sim) Chaos() *Chaos { return s.chaos }

// ChaosEnabled reports whether link faults are configured.
func (s *Sim) ChaosEnabled() bool { return s.chaos != nil }

// SetLinkLoss overrides the loss probability for messages src → dst
// (node IDs).
func (c *Chaos) SetLinkLoss(src, dst int, p float64) {
	c.linkLoss[[2]int{src, dst}] = clamp01(p)
}

// SetLinkDelay sets the maximum extra delay for messages src → dst.
func (c *Chaos) SetLinkDelay(src, dst int, d Time) {
	c.linkDelay[[2]int{src, dst}] = d
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

func (c *Chaos) rand() float64 {
	x, y := c.s0, c.s1
	c.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	c.s1 = x
	return float64((x+y)>>11) / (1 << 53)
}

func (c *Chaos) lose(src, dst int) bool {
	p := c.defaultLoss
	if v, ok := c.linkLoss[[2]int{src, dst}]; ok {
		p = v
	}
	if p <= 0 {
		return false
	}
	if c.rand() < p {
		c.MessagesLost++
		return true
	}
	return false
}

func (c *Chaos) delay(src, dst int) Time {
	d := c.linkDelay[[2]int{src, dst}]
	if d <= 0 {
		return 0
	}
	return c.rand() * d
}

// FaultAction is one scheduled chaos action: at virtual time At, Do runs
// inside the controller process (crash a node, drop a cache, slow a NIC).
type FaultAction struct {
	At   Time
	Name string
	Do   func()
}

// FaultPlan is a schedule of chaos actions. Link loss/delay is configured
// separately via EnableChaos; the plan carries only the timed actions.
type FaultPlan struct {
	Actions []FaultAction
}

// StartFaultPlan spawns the chaos controller: a process that sleeps to each
// action's time (in order) and runs it. Actions fire mid-simulation — in the
// middle of whatever RPCs are in flight — not between phases. The controller
// exits early once stop fires (typically when the driver job completes), so
// a plan with actions beyond the job's end does not execute them.
func (s *Sim) StartFaultPlan(plan *FaultPlan, stop *Signal) {
	if plan == nil || len(plan.Actions) == 0 {
		return
	}
	acts := append([]FaultAction(nil), plan.Actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	s.Spawn("chaos-controller", func(p *Proc) {
		for _, a := range acts {
			if stop != nil && stop.Fired() {
				return
			}
			if d := a.At - p.Now(); d > 0 {
				p.Sleep(d)
			}
			if stop != nil && stop.Fired() {
				return
			}
			s.tracer.Instant(obs.EnvLane, "env", obs.KFault, a.Name)
			a.Do()
		}
	})
}

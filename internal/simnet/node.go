package simnet

import (
	"strconv"

	"repro/internal/obs"
)

// Node models one machine's network interface. Outgoing transfers serialize
// on the node's egress NIC and incoming transfers on its ingress NIC, each at
// a fixed bandwidth. This store-and-forward model is what produces the
// "single-node driver" in-cast bottleneck the PS2 paper measures: when W
// workers each send S bytes to one driver, the driver's ingress NIC services
// them one after another (total ~ W*S/bw), whereas spreading the same bytes
// over P parameter servers services them in parallel (total ~ W*S/(P*bw)).
type Node struct {
	ID      int
	Name    string
	sim     *Sim
	out     *Resource
	in      *Resource
	outBW   float64 // bytes per second
	inBW    float64 // bytes per second
	latency Time    // one-way propagation delay in seconds

	// CPU serializes local computation charged via Compute. Capacity equals
	// the number of cores.
	cpu  *Resource
	rate float64 // abstract work units per second per core

	// down marks a crashed machine; see Fail/Restore/Up in fault.go.
	down bool

	// Counters for observability; virtual bytes, not host bytes.
	BytesSent float64
	BytesRecv float64
	WorkDone  float64
}

// NodeConfig describes a machine.
type NodeConfig struct {
	Name         string
	BandwidthBps float64 // NIC bandwidth in bytes/sec (both directions)
	LatencySec   Time    // one-way network latency
	Cores        int     // CPU cores
	WorkRate     float64 // work units per second per core
}

// DefaultNodeConfig mirrors the paper's testbed in spirit: 10 Gbps Ethernet
// (~1.25 GB/s), 0.1 ms latency, 12 cores.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		BandwidthBps: 1.25e9,
		LatencySec:   1e-4,
		Cores:        12,
		WorkRate:     1e9,
	}
}

// NewNode creates a machine attached to the simulation.
func (s *Sim) NewNode(id int, cfg NodeConfig) *Node {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 1.25e9
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.WorkRate <= 0 {
		cfg.WorkRate = 1e9
	}
	return &Node{
		ID:      id,
		Name:    cfg.Name,
		sim:     s,
		out:     s.NewResource(1),
		in:      s.NewResource(1),
		outBW:   cfg.BandwidthBps,
		inBW:    cfg.BandwidthBps,
		latency: cfg.LatencySec,
		cpu:     s.NewResource(cfg.Cores),
		rate:    cfg.WorkRate,
	}
}

// Send transfers bytes from n to dst, blocking the calling process for the
// full transfer time: serialization on n's egress NIC, propagation latency,
// then serialization on dst's ingress NIC. Plain Send ignores faults and
// chaos.
func (n *Node) Send(p *Proc, dst *Node, bytes float64) {
	n.transfer(p, dst, bytes, false, nil)
	p.wait()
}

// TrySendThen is TrySend as a step of a chain: next runs when the transfer
// ends, with its result in p.Err().
func (n *Node) TrySendThen(p *Proc, dst *Node, bytes float64, next func(*Proc)) {
	n.transfer(p, dst, bytes, true, next)
}

// Err returns the result of the process's last transfer.
func (p *Proc) Err() error { return p.err }

// transfer starts a Send (try false) or TrySend (try true), then next. A
// message between two machines is a kernel-run operation: the egress hold,
// propagation, the liveness and chaos-loss checks and the ingress hold run
// as steps in the event loop (egressed, arrived, delivered), and
// transferred ends it.
func (n *Node) transfer(p *Proc, dst *Node, bytes float64, try bool, next func(*Proc)) {
	p.src, p.dst, p.try, p.err, p.next = n, dst, try, nil, next
	if t := n.sim.tracer; t != nil {
		p.sendSpan = t.Begin(n.ID, n.Name, obs.KNetSend, "send "+dst.Name, p.span,
			obs.KV{K: "bytes", V: strconv.FormatFloat(bytes, 'f', 0, 64)})
	}
	if bytes < 0 {
		bytes = 0
	}
	p.size = bytes
	if try && n.down {
		p.err = ErrNodeDown
		transferred(p)
		return
	}
	n.BytesSent += bytes
	if !try {
		// Plain Send counts the bytes received up front: it cannot fail.
		dst.BytesRecv += bytes
	}
	if n == dst {
		// Local delivery costs nothing on the network.
		p.After(0, deliveredLocally)
		return
	}
	p.use(n.out, bytes/n.outBW, egressed)
}

// deliveredLocally: a message to the sender's own machine arrives at once;
// for TrySend the machine must still be up.
func deliveredLocally(p *Proc) {
	if p.try {
		if p.src.down {
			p.err = ErrNodeDown
		} else {
			p.src.BytesRecv += p.size
		}
	}
	transferred(p)
}

// egressed: the message has left the sender's NIC; it propagates for the
// link latency plus, for TrySend, the chaos layer's extra delay.
func egressed(p *Proc) {
	extra := Time(0)
	if c := p.sim.chaos; c != nil && p.try {
		extra = c.delay(p.src.ID, p.dst.ID)
	}
	p.After(p.src.latency+extra, arrived)
}

// arrived: the message reached the receiver. TrySend fails here if the
// receiver is down or chaos drops the message; otherwise it queues on the
// receiver's ingress NIC.
func arrived(p *Proc) {
	if p.try {
		if p.dst.down {
			p.err = ErrNodeDown
			transferred(p)
			return
		}
		if c := p.sim.chaos; c != nil && c.lose(p.src.ID, p.dst.ID) {
			p.err = ErrMsgLost
			transferred(p)
			return
		}
	}
	p.use(p.dst.in, p.size/p.dst.inBW, delivered)
}

// delivered: the ingress NIC has the whole message. For TrySend the
// receiver must still be up, having possibly crashed while it serialized.
func delivered(p *Proc) {
	if p.try {
		if p.dst.down {
			p.err = ErrNodeDown
		} else {
			p.dst.BytesRecv += p.size
		}
	}
	transferred(p)
}

// transferred ends a transfer: its trace span closes with the result, and
// the chain goes on.
func transferred(p *Proc) {
	if sp := p.sendSpan; sp.OK() {
		p.sendSpan = obs.Span{}
		if err := p.err; err != nil {
			sp.End(obs.KV{K: "err", V: err.Error()})
			if err == ErrMsgLost {
				p.sim.tracer.Instant(p.src.ID, p.src.Name, obs.KMsgLost, "lost "+p.dst.Name)
			}
		} else {
			sp.End()
		}
	}
	endOp(p)
}

// Compute charges `work` abstract units against one of the node's cores,
// blocking the calling process for work/rate seconds once a core is free.
func (n *Node) Compute(p *Proc, work float64) {
	if work <= 0 {
		return
	}
	n.WorkDone += work
	n.cpu.Use(p, work/n.rate)
}

// ComputeThen is Compute as a step of a chain: next runs once the work is
// done (at once when there is none).
func (n *Node) ComputeThen(p *Proc, work float64, next func(*Proc)) {
	if work <= 0 {
		next(p)
		return
	}
	n.WorkDone += work
	p.next = next
	p.use(n.cpu, work/n.rate, endOp)
}

// SlowDown divides the node's compute rate by factor — straggler injection.
// Affects only Compute charges issued after the call.
func (n *Node) SlowDown(factor float64) {
	if factor <= 0 {
		return
	}
	n.rate /= factor
}

// WorkRate returns the node's current per-core compute rate.
func (n *Node) WorkRate() float64 { return n.rate }

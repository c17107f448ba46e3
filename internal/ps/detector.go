package ps

// This file implements the master's failure detector: a monitor process that
// heartbeats every PS-server on a fixed interval and, after a configurable
// number of consecutive misses, declares the server dead and drives the
// recovery pipeline automatically (fence old machine → provision replacement
// → restore shards from the latest checkpoint → admit traffic). Clients
// never see the handoff: their in-flight requests spin in CallShard's
// backoff loop until the replacement is serving.

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	IntervalSec    float64 // heartbeat period
	Misses         int     // consecutive missed beats before declaring death
	AutoRecover    bool    // drive RecoverServer automatically on detection
	HeartbeatBytes float64 // ping/ack size on the wire
}

// DefaultDetectorConfig returns the detector used by all experiments:
// worst-case detection latency ≈ Misses × IntervalSec = 1 s, and Misses = 2
// tolerates one lost heartbeat without a false positive.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		IntervalSec:    0.5,
		Misses:         2,
		AutoRecover:    true,
		HeartbeatBytes: 64,
	}
}

func (cfg DetectorConfig) withDefaults() DetectorConfig {
	d := DefaultDetectorConfig()
	if cfg.IntervalSec <= 0 {
		cfg.IntervalSec = d.IntervalSec
	}
	if cfg.Misses < 1 {
		cfg.Misses = d.Misses
	}
	if cfg.HeartbeatBytes <= 0 {
		cfg.HeartbeatBytes = d.HeartbeatBytes
	}
	return cfg
}

// StartMonitor spawns the failure-detector process. Each round it pings every
// server (ping + ack, both fallible); a server that misses cfg.Misses
// consecutive rounds is declared dead and — with AutoRecover — recovered
// inline before the next round. Servers taken down manually via KillServer
// (alive already false) are left for the manual RecoverServer path.
// The monitor runs until StopMonitor; starting a second monitor stops the
// first.
func (m *Master) StartMonitor(cfg DetectorConfig) {
	cfg = cfg.withDefaults()
	m.StopMonitor()
	stop := m.Cl.Sim.NewSignal()
	m.monitorStop = stop
	missed := make([]int, len(m.servers))
	m.Cl.Sim.Spawn("ps-monitor", func(p *simnet.Proc) {
		for {
			p.Sleep(cfg.IntervalSec)
			if stop.Fired() {
				return
			}
			if len(missed) != len(m.servers) {
				// Elastic membership resized the cluster mid-run: keep the
				// surviving counters, start fresh ones at zero.
				nm := make([]int, len(m.servers))
				copy(nm, missed)
				missed = nm
			}
			ok := make([]bool, len(m.servers))
			g := p.Sim().NewGroup()
			for i, srv := range m.servers {
				i, node := i, srv.Node
				g.Go("heartbeat", func(cp *simnet.Proc) {
					if m.send(cp, m.Cl.Driver, node, cfg.HeartbeatBytes) != nil {
						return
					}
					if m.send(cp, node, m.Cl.Driver, cfg.HeartbeatBytes) != nil {
						return
					}
					ok[i] = true
				})
			}
			g.Wait(p)
			if stop.Fired() {
				return
			}
			for i, srv := range m.servers {
				if ok[i] {
					missed[i] = 0
					continue
				}
				missed[i]++
				if missed[i] < cfg.Misses || !srv.alive {
					continue
				}
				// Declared dead. failedAt < 0 means a false positive (e.g.
				// heartbeats eaten by message loss); recovery still fences and
				// replaces the machine, so the system stays consistent either
				// way.
				m.Recovery.Detections++
				t := m.Cl.Sim.Tracer()
				if t != nil {
					t.Instant(m.Cl.Driver.ID, m.Cl.Driver.Name, obs.KDetect,
						"server-"+strconv.Itoa(i)+" dead")
				}
				if srv.failedAt >= 0 {
					m.Recovery.DetectLatencySum += p.Now() - srv.failedAt
				}
				srv.alive = false
				missed[i] = 0
				if cfg.AutoRecover {
					// The fencing window spans declaration to recovered; the
					// KRecovery span it parents nests inside it.
					var win obs.Span
					if t != nil {
						win = t.Begin(m.Cl.Driver.ID, m.Cl.Driver.Name, obs.KDetectWin,
							"fencing server-"+strconv.Itoa(i), p.TraceParent())
					}
					prevSpan := p.SetTraceParent(win)
					m.RecoverServer(p, i)
					p.SetTraceParent(prevSpan)
					win.End()
				}
			}
		}
	})
}

// StopMonitor stops the failure detector (idempotent). Call it once the
// driver's job completes, or the monitor's heartbeats keep virtual time
// advancing forever.
func (m *Master) StopMonitor() {
	if m.monitorStop != nil {
		m.monitorStop.Fire()
		m.monitorStop = nil
	}
}

package ps

// Consistency-policy plumbing for the master: one decision-counter surface
// shared by every layer that consults a consistency.Policy (worker cache,
// hot-replica revalidation, serving reads), and a registry of the live
// policy objects so adaptive bound movements can be folded into the
// end-of-run report. All host-side; no virtual cost.

import (
	"repro/internal/consistency"
	"repro/internal/obs"
)

// registerPolicy remembers a policy attached to this master so its adaptive
// counters can be reported. Pure clock-bounded policies carry no state worth
// folding (their decisions land in the shared counters directly) and are
// often constructed per call, so they are not retained.
func (m *Master) registerPolicy(pol consistency.Policy) {
	if pol == nil {
		return
	}
	if _, clock := pol.(*consistency.ClockBounded); clock {
		return
	}
	for _, p := range m.policies {
		if p == pol {
			return
		}
	}
	m.policies = append(m.policies, pol)
	if m.Consistency.Policy == "" || m.Consistency.Policy == "clock" {
		m.Consistency.Policy = pol.Name()
	}
}

// ConsistencyReport returns the decision counters with the adaptive
// policies' bound movements folded in — the view Engine.Snapshot surfaces.
func (m *Master) ConsistencyReport() obs.ConsistencySnapshot {
	cs := m.Consistency
	if cs.Policy == "" && cs.Decisions() > 0 {
		cs.Policy = "clock"
	}
	for _, pol := range m.policies {
		if a, ok := pol.(*consistency.Adaptive); ok {
			st := a.Stats()
			cs.Tightenings += st.Tightenings
			cs.Relaxations += st.Relaxations
			cs.EffectiveBound = a.EffectiveBound()
		}
	}
	return cs
}

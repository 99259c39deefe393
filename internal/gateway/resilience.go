package gateway

import (
	"maxelerator/internal/obs"
	"maxelerator/internal/resilience"
)

// This file wires the three resilience mechanisms (internal/resilience)
// into the gateway's routing machinery:
//
//   - every backend gets a circuit breaker fed by both probe verdicts
//     and routing-time handshake results; its position is the fleet
//     membership, so a dead backend stops being routed to at dial speed
//     and a flapping one stays out through the breaker's hysteresis;
//   - the ejector folds each committed session's dial→first-frame
//     latency into a per-backend EWMA; backends beyond K× the fleet
//     median are demoted to last-resort candidates (not removed — a
//     uniformly slow fleet still serves);
//   - the retry budget gates every failover attempt beyond a session's
//     first candidate, so a fleet-wide outage degrades to fast BUSY
//     rejections instead of each session marching the full candidate
//     list.

// onBreakerTransition is every backend breaker's OnTransition hook: it
// publishes the breaker's position on the canonical metrics. Membership
// itself is not stored anywhere else — route, the gauges and Snapshot
// ask breaker.Routable(). Transitions are delivered under the breaker's
// lock in Seq order, so the eject and readmit counters cannot miscount
// two probes (or a probe and a failed dial) racing on one backend.
func (g *Gateway) onBreakerTransition(b *backendState, tr resilience.Transition) {
	g.reg.BreakerState(b.Addr).Set(obs.BreakerStateValue(tr.To.String()))
	if g.cfg.onTransition != nil {
		g.cfg.onTransition(b.Addr, tr)
	}
	switch {
	case tr.From == resilience.StateClosed && tr.To == resilience.StateOpen:
		g.reg.Counter("gw_membership_changes_total",
			"backend fleet ejections and readmissions",
			obs.L("backend", b.Addr), obs.L("change", "eject")).Inc()
		g.reg.Counter(obs.MetricEjections, obs.HelpEjections,
			obs.L("backend", b.Addr), obs.L("reason", "breaker")).Inc()
		g.logf("gateway: breaker opened for %s (consecutive failures)", b.Addr)
	case tr.To == resilience.StateClosed:
		g.reg.Counter("gw_membership_changes_total",
			"backend fleet ejections and readmissions",
			obs.L("backend", b.Addr), obs.L("change", "readmit")).Inc()
		g.logf("gateway: breaker closed for %s (trial succeeded)", b.Addr)
	}
	// open→half-open and half-open→open keep the backend unroutable:
	// half-open admits exactly the trial observation, never sessions.
}

// publishBudget refreshes the retry-budget gauge after a deposit or
// withdrawal (millitokens: the registry's gauges are integers).
func (g *Gateway) publishBudget() {
	g.reg.Gauge(obs.MetricRetryBudgetTokens, obs.HelpRetryBudgetTokens).
		Set(int64(g.budget.Tokens() * 1000))
}

// noteHintMiss counts a hinted session whose shape no routable backend
// advertises and emits a rate-limited log line — one per
// hintMissLogEvery fleet-wide, because a shape nobody advertises tends
// to arrive in bursts and each miss says the same thing: the session
// is routed by load alone, to a backend with no pool for it.
func (g *Gateway) noteHintMiss(key string) {
	g.reg.Counter(obs.MetricHintMisses, obs.HelpHintMisses, obs.L("shape", key)).Inc()
	if g.cfg.Logf == nil {
		return
	}
	now := g.cfg.Now()
	g.hintMu.Lock()
	due := now.Sub(g.lastHintMiss) >= hintMissLogEvery
	if due {
		g.lastHintMiss = now
	}
	g.hintMu.Unlock()
	if due {
		g.cfg.Logf("gateway: shape hint %q matches no advertised backend pool; routing by load (cold pool)", key)
	}
}

// logf forwards to the configured logger, if any.
func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// RetryBudgetStats exposes the budget's lifetime counters — the
// numbers maxchaos checks the failover-bound invariant against.
func (g *Gateway) RetryBudgetStats() (deposits, withdrawals, denials uint64) {
	return g.budget.Stats()
}

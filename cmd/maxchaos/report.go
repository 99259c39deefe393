package main

import (
	"fmt"
	"runtime"
	"time"
)

// Report is maxchaos's verdict: everything the run measured plus the
// invariant violations, marshalled as JSON on stdout. Pass is false —
// and the process exits 1 — if any fleet-wide invariant broke.
type Report struct {
	Backends  int    `json:"backends"`
	Duration  string `json:"duration"`
	KillEvery string `json:"kill_every"`

	Sessions    int64   `json:"sessions"`
	Skipped     int64   `json:"skipped"`
	Succeeded   int64   `json:"succeeded"`
	Shed        int64   `json:"shed"`
	Failed      int64   `json:"failed"`
	Miscomputed int64   `json:"miscomputed"`
	ErrorRate   float64 `json:"error_rate"`
	// P50Ms and P99Ms are the client latency of successful sessions,
	// arrival to result (load.Percentiles).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	ServedTotal     int64            `json:"served_total"`
	ServedByBackend map[string]int64 `json:"served_by_backend"`

	Kills           int64 `json:"kills"`
	Restarts        int64 `json:"restarts"`
	RestartFailures int64 `json:"restart_failures"`
	Stalls          int64 `json:"stalls"`
	FlakyWindows    int64 `json:"flaky_windows"`

	// BreakerOpens and BreakerReadmits sum gw_membership_changes_total
	// over the fleet (change="eject" and "readmit"); LatencyEjections
	// sums gw_ejections_total{reason="latency"}. They say how often each
	// defense acted.
	BreakerOpens     uint64 `json:"breaker_opens"`
	BreakerReadmits  uint64 `json:"breaker_readmits"`
	LatencyEjections uint64 `json:"latency_ejections"`

	Drained              bool             `json:"drained"`
	GaugeSessionsActive  int64            `json:"gauge_sessions_active"`
	GaugeDraining        int64            `json:"gauge_draining"`
	GaugeBackendSessions map[string]int64 `json:"gauge_backend_sessions"`

	GoroutinesBefore int              `json:"goroutines_before"`
	GoroutinesAfter  int              `json:"goroutines_after"`
	ArenaOutstanding map[string]int64 `json:"arena_outstanding"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// goroutineSlack is how many goroutines above the pre-run baseline the
// leak check tolerates: the runtime's own helpers (netpoll, timer,
// finalizer) come and go a few at a time.
const goroutineSlack = 5

// evaluate applies the fleet-wide invariants and fills Violations,
// ErrorRate and Pass.
func (r *Report) evaluate(cfg *chaosConfig) {
	add := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}

	if r.Sessions == 0 {
		add("no load: the generator launched zero sessions")
	}
	if r.Miscomputed > 0 {
		add("correctness: %d sessions completed with a wrong result", r.Miscomputed)
	}
	// Single-serve: a session the client saw succeed corresponds to at
	// most one backend-side completion — a served request followed by
	// the session's clean end, which only the backend the gateway
	// committed to can see. More completions than client successes
	// means a session was served twice.
	if r.ServedTotal > r.Succeeded {
		add("single-serve violated: backends completed %d sessions, clients saw only %d successes",
			r.ServedTotal, r.Succeeded)
	}
	if r.Sessions > 0 {
		r.ErrorRate = float64(r.Shed+r.Failed) / float64(r.Sessions)
		if r.ErrorRate > cfg.maxErrorRate {
			add("error rate %.3f exceeds the %.3f bound (%d shed + %d failed of %d sessions)",
				r.ErrorRate, cfg.maxErrorRate, r.Shed, r.Failed, r.Sessions)
		}
	}
	if !r.Drained {
		add("gateway did not drain to empty within the post-load deadline")
	}
	if r.GaugeSessionsActive != 0 {
		add("gw_sessions_active = %d after drain, want 0", r.GaugeSessionsActive)
	}
	if r.GaugeDraining != 0 {
		add("gw_draining = %d after drain, want 0", r.GaugeDraining)
	}
	for addr, v := range r.GaugeBackendSessions {
		if v != 0 {
			add("gw_backend_sessions{backend=%q} = %d after drain, want 0", addr, v)
		}
	}
	for addr, v := range r.ArenaOutstanding {
		if v != 0 {
			add("arena leak: backend %s still holds %d frame buffers after teardown", addr, v)
		}
	}
	if r.GoroutinesAfter > r.GoroutinesBefore+goroutineSlack {
		add("goroutine leak: %d after teardown vs %d before (+%d slack)",
			r.GoroutinesAfter, r.GoroutinesBefore, goroutineSlack)
	}
	if r.RestartFailures > 0 {
		add("%d backend restarts failed to re-bind", r.RestartFailures)
	}
	r.Pass = len(r.Violations) == 0
}

// settleGoroutines polls the goroutine count until it returns to the
// baseline (plus slack) or the deadline passes, absorbing the lag of
// netpoll and timer goroutines unwinding after teardown.
func settleGoroutines(base int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	n := runtime.NumGoroutine()
	for n > base+goroutineSlack && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

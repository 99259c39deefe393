package main

import (
	"encoding/json"
	"testing"
	"time"
)

// TestChaosAcceptance is the PR's headline scenario run end to end:
// one live gateway in front of three backends, one backend killed
// (and later restarted) every 5 seconds under open-loop load, with
// mute-peer and lossy-link windows on the survivors. The run must
// complete with every fleet-wide invariant intact: zero double-served
// sessions, a correct result on every success, client-visible errors
// bounded, failover load within the retry budget, all gateway gauges
// zero after the drain, and no goroutine or arena leaks. Bounded well
// under 60s so CI can run it as a smoke job.
func TestChaosAcceptance(t *testing.T) {
	cfg := defaultConfig()
	cfg.duration = 16 * time.Second
	rep, err := runChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pretty, _ := json.MarshalIndent(rep, "", "  ")
	t.Logf("chaos report:\n%s", pretty)
	if !rep.Pass {
		t.Fatalf("fleet invariants violated: %v", rep.Violations)
	}
	// The invariants only mean something if the run actually exercised
	// the fleet: sessions completed and chaos really happened.
	if rep.Succeeded == 0 {
		t.Fatal("no session succeeded; the harness measured an idle fleet")
	}
	if rep.Kills < 2 {
		t.Fatalf("only %d kills in %s, want at least 2", rep.Kills, cfg.duration)
	}
	if rep.Restarts != rep.Kills {
		t.Fatalf("%d restarts for %d kills; a backend stayed dead", rep.Restarts, rep.Kills)
	}
	if rep.Stalls == 0 && rep.FlakyWindows == 0 {
		t.Fatal("no degradation window ran; stall/flaky injection is wired off")
	}
}

// TestReportEvaluate pins the invariant arithmetic without running a
// fleet: each violation trips on exactly the condition it names.
func TestReportEvaluate(t *testing.T) {
	cfg := defaultConfig()
	base := func() *Report {
		return &Report{
			Sessions:          40,
			Succeeded:         38,
			Failed:            2,
			ServedTotal:       38,
			BudgetDeposits:    40,
			BudgetWithdrawals: 5,
			Drained:           true,
			GoroutinesBefore:  10,
			GoroutinesAfter:   12,
			GaugeBackendSessions: map[string]int64{
				"127.0.0.1:1": 0,
			},
			ArenaOutstanding: map[string]int64{
				"127.0.0.1:1": 0,
			},
		}
	}

	r := base()
	r.evaluate(&cfg)
	if !r.Pass {
		t.Fatalf("clean report failed: %v", r.Violations)
	}

	cases := []struct {
		name   string
		break_ func(*Report)
	}{
		{"double serve", func(r *Report) { r.ServedTotal = r.Succeeded + 1 }},
		{"miscompute", func(r *Report) { r.Miscomputed = 1 }},
		{"budget overdrawn", func(r *Report) { r.BudgetWithdrawals = 1000 }},
		{"error rate", func(r *Report) { r.Failed = 39; r.Succeeded = 1; r.ServedTotal = 1 }},
		{"no drain", func(r *Report) { r.Drained = false }},
		{"active gauge", func(r *Report) { r.GaugeSessionsActive = 3 }},
		{"draining gauge", func(r *Report) { r.GaugeDraining = 1 }},
		{"backend gauge", func(r *Report) { r.GaugeBackendSessions["127.0.0.1:1"] = 2 }},
		{"arena leak", func(r *Report) { r.ArenaOutstanding["127.0.0.1:1"] = 4 }},
		{"goroutine leak", func(r *Report) { r.GoroutinesAfter = r.GoroutinesBefore + goroutineSlack + 1 }},
		{"restart failure", func(r *Report) { r.RestartFailures = 1 }},
		{"no load", func(r *Report) { r.Sessions = 0 }},
	}
	for _, tc := range cases {
		r := base()
		tc.break_(r)
		r.evaluate(&cfg)
		if r.Pass {
			t.Errorf("%s: report passed, want a violation", tc.name)
		}
	}
}

// TestEffectiveBudgetDefaults keeps the report's bound arithmetic in
// lockstep with resilience.BudgetConfig's defaulting rules.
func TestEffectiveBudgetDefaults(t *testing.T) {
	if got := effectiveBurst(-1); got != 0 {
		t.Fatalf("effectiveBurst(-1) = %v, want 0 (negative disables)", got)
	}
	if got := effectiveBurst(0); got != 10 {
		t.Fatalf("effectiveBurst(0) = %v, want the default 10", got)
	}
	if got := effectiveBurst(25); got != 25 {
		t.Fatalf("effectiveBurst(25) = %v, want 25", got)
	}
	if got := effectiveRatio(0); got != 0.2 {
		t.Fatalf("effectiveRatio(0) = %v, want the default 0.2", got)
	}
	if got := effectiveRatio(0.5); got != 0.5 {
		t.Fatalf("effectiveRatio(0.5) = %v, want 0.5", got)
	}
}

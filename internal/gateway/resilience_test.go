package gateway

import (
	"errors"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/resilience"
)

// TestProberFlappingMonotoneTransitions is the flapping-backend drill:
// several goroutines hammer ProbeNow while the primary's verdict and
// the clock race each other through 40 flap cycles. Whatever the
// interleaving, every breaker must move strictly monotonically (Seq
// +1, next.From == prev.To) along legal edges only, and the fleet must
// never see a double-readmit: readmissions counted on the membership
// counter must equal the breaker's closed-arrivals exactly. Run under
// -race and -shuffle=on in CI.
func TestProberFlappingMonotoneTransitions(t *testing.T) {
	clock := newTestClock()
	var mu sync.Mutex
	trs := make(map[string][]resilience.Transition)
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.Now = clock.Now
		cfg.BreakerCooldown = time.Second
		cfg.onTransition = func(addr string, tr resilience.Transition) {
			mu.Lock()
			trs[addr] = append(trs[addr], tr)
			mu.Unlock()
		}
	})
	order := f.routeOrder(true)
	primary := f.backends[order[0]]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f.gw.ProbeNow()
				}
			}
		}()
	}
	for cycle := 0; cycle < 40; cycle++ {
		status := obs.HealthOverloaded
		if cycle%2 == 1 {
			status = obs.HealthOK
		}
		primary.mu.Lock()
		primary.status = status
		primary.mu.Unlock()
		clock.Advance(300 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	legal := map[resilience.State]map[resilience.State]bool{
		resilience.StateClosed:   {resilience.StateOpen: true},
		resilience.StateOpen:     {resilience.StateHalfOpen: true},
		resilience.StateHalfOpen: {resilience.StateClosed: true, resilience.StateOpen: true},
	}
	mu.Lock()
	defer mu.Unlock()
	readmits := 0
	for addr, ts := range trs {
		for i, tr := range ts {
			if !legal[tr.From][tr.To] {
				t.Fatalf("%s transition %d: illegal edge %s→%s", addr, i, tr.From, tr.To)
			}
			if i > 0 {
				prev := ts[i-1]
				if tr.Seq != prev.Seq+1 {
					t.Fatalf("%s transition %d: Seq %d after %d, want strictly +1", addr, i, tr.Seq, prev.Seq)
				}
				if tr.From != prev.To {
					t.Fatalf("%s transition %d: From %s, but previous landed on %s", addr, i, tr.From, prev.To)
				}
			}
			if tr.To == resilience.StateClosed {
				readmits++
			}
		}
	}
	for _, addr := range order[1:] {
		if n := len(trs[addr]); n != 0 {
			t.Fatalf("steady backend %s recorded %d transitions, want 0", addr, n)
		}
	}
	counted := f.obs.Metrics().Counter("gw_membership_changes_total", "",
		obs.L("backend", order[0]), obs.L("change", "readmit")).Value()
	if counted != uint64(readmits) {
		t.Fatalf("membership counter shows %d readmits, breaker transitioned closed %d times (double-readmit?)",
			counted, readmits)
	}
	// The one derived copy of membership left is a gauge; a probe pass
	// on the now-still clock must leave it agreeing with the breaker. It
	// may still move the breaker (half-open → closed), whose hook takes
	// mu: holding mu across it deadlocked the test now and then.
	mu.Unlock()
	f.gw.ProbeNow()
	mu.Lock()
	up := f.obs.Metrics().Gauge("gw_backend_up", "", obs.L("backend", order[0])).Value()
	if (up == 1) != f.state(order[0]).breaker.Routable() {
		t.Fatalf("gw_backend_up = %d diverged from breaker state", up)
	}
}

// TestRetryBudgetShedsWhenExhausted: with no burst allowance and a
// dead fleet, a session pays for zero failovers — it dials exactly one
// candidate, the budget denies the second, and the session sheds with
// BUSY. This is the anti-retry-storm property at n=1.
func TestRetryBudgetShedsWhenExhausted(t *testing.T) {
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.RetryBudgetMin = -1 // no burst
		cfg.RetryBudget = 0.1
	})
	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = true
		fb.mu.Unlock()
	}
	_, err := runSession(t, f, &testHint)
	var be *protocol.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("expected BusyError from the budget shed, got %v", err)
	}
	reg := f.obs.Metrics()
	if got := reg.Counter(obs.MetricRetryBudgetExhausted, "").Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricRetryBudgetExhausted, got)
	}
	if got := reg.Counter("gw_failovers_total", "", obs.L("reason", "dial")).Value(); got != 1 {
		t.Fatalf("dialed %d candidates, want exactly 1 (budget must stop the march)", got)
	}
	dep, wd, den := f.gw.RetryBudgetStats()
	if dep != 1 || wd != 0 || den != 1 {
		t.Fatalf("budget stats = %d/%d/%d, want 1 deposit, 0 withdrawals, 1 denial", dep, wd, den)
	}
}

// TestLatencyOutlierDemoted: a backend whose handshake EWMA sits far
// above the fleet median is demoted to last-resort candidate by the
// probe-tick sweep — visible in route order, the ejections counter and
// the snapshot — and the demotion expires with its cooldown.
func TestLatencyOutlierDemoted(t *testing.T) {
	clock := newTestClock()
	const cooldown = 10 * time.Second
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.Now = clock.Now
		cfg.OutlierK = 2
		cfg.OutlierMinSamples = 3
		cfg.OutlierCooldown = cooldown
	})
	order := f.routeOrder(true)
	for i := 0; i < 3; i++ {
		f.gw.ejector.Observe(order[0], 500*time.Millisecond)
		f.gw.ejector.Observe(order[1], 10*time.Millisecond)
		f.gw.ejector.Observe(order[2], 12*time.Millisecond)
	}
	f.gw.ProbeNow() // runs the sweep

	got := f.gw.route(testHint, true)
	if len(got) != 3 {
		t.Fatalf("%d candidates, want 3 (ejection demotes, never removes)", len(got))
	}
	if got[len(got)-1].Addr != order[0] {
		t.Fatalf("slow backend %s not demoted to last (order %v)", order[0], []string{got[0].Addr, got[1].Addr, got[2].Addr})
	}
	if n := f.obs.Metrics().Counter(obs.MetricEjections, "",
		obs.L("backend", order[0]), obs.L("reason", "latency")).Value(); n != 1 {
		t.Fatalf("%s{latency,%s} = %d, want 1", obs.MetricEjections, order[0], n)
	}
	var found bool
	for _, st := range f.gw.Snapshot() {
		if st.Addr == order[0] {
			found = st.Ejected && st.LatencyEWMAMs > 100 && st.Breaker == "closed"
		}
	}
	if !found {
		t.Fatalf("snapshot does not show the latency ejection: %+v", f.gw.Snapshot())
	}

	clock.Advance(cooldown + time.Second)
	if f.gw.ejector.Ejected(order[0]) {
		t.Fatal("latency ejection outlived its cooldown")
	}
}

// TestBreakerTrialReadmitsByTraffic covers the readmission path for a
// fleet whose probes are absent or stale: after every breaker trips
// (dead fleet), a revived backend is offered as a last-resort trial
// once its cooldown expires, and the successful handshake itself
// readmits it — no probe required.
func TestBreakerTrialReadmitsByTraffic(t *testing.T) {
	clock := newTestClock()
	const cooldown = 2 * time.Second
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.Now = clock.Now
		cfg.BreakerCooldown = cooldown
	})
	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = true
		fb.mu.Unlock()
	}
	// Two shed sessions are enough to trip every breaker (EjectAfter=2,
	// each session dials all three candidates).
	for i := 0; i < 2; i++ {
		if _, err := runSession(t, f, &testHint); err == nil {
			t.Fatal("session succeeded against a dead fleet")
		}
	}
	if n := f.gw.routable(); n != 0 {
		t.Fatalf("%d backends still routable after the fleet died", n)
	}
	// Mid-cooldown the fleet is unroutable: sessions shed immediately.
	if _, err := runSession(t, f, &testHint); err == nil {
		t.Fatal("session succeeded with every breaker open")
	}

	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = false
		fb.mu.Unlock()
	}
	clock.Advance(cooldown + time.Second)
	out, err := runSession(t, f, &testHint)
	if err != nil {
		t.Fatalf("trial session failed against a revived fleet: %v", err)
	}
	wantResult(t, out)
	f.drain()
	if got := f.totalServed(); got != 1 {
		t.Fatalf("fleet served %d sessions, want 1", got)
	}
	readmitted := 0
	for _, b := range f.gw.states {
		if b.breaker.Routable() {
			readmitted++
		}
	}
	if readmitted != 1 {
		t.Fatalf("%d backends readmitted by one trial session, want exactly 1", readmitted)
	}
}

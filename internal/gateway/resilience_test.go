package gateway

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
)

// TestProberFlappingMonotoneTransitions is the flapping-backend drill:
// four goroutines hammer ProbeNow while the primary's verdict flips
// through 40 flap cycles, each held until the breaker has followed it.
// The probers race each other on every verdict; a flip waits for the
// passes that read the old verdict to finish, so none of them lands
// after the breaker has followed the new one. Whatever the
// interleaving, every flap must be counted exactly once — 20 ejects
// and 20 readmits on gw_membership_changes_total, so no double eject
// or double readmit — the steady backends must not move, and
// gw_backend_up must agree with the breaker. Run under -race and
// -shuffle=on in CI.
func TestProberFlappingMonotoneTransitions(t *testing.T) {
	f := newFleet(t, 3, nil)
	order := f.routeOrder(true)
	primary := f.backends[order[0]]

	// pass is held shared by every probe pass and exclusively by a
	// verdict flip.
	var pass sync.RWMutex
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
					pass.RLock()
					f.gw.ProbeNow()
					pass.RUnlock()
				}
			}
		}()
	}
	breaker := f.state(order[0]).breaker
	const cycles = 40
	for cycle := 0; cycle < cycles; cycle++ {
		up := cycle%2 == 1
		status := obs.HealthOverloaded
		if up {
			status = obs.HealthOK
		}
		pass.Lock()
		primary.mu.Lock()
		primary.status = status
		primary.mu.Unlock()
		pass.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		for breaker.Routable() != up {
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("cycle %d: breaker did not follow the %s verdict in 5s", cycle, status)
			}
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	f.gw.ProbeNow() // settle the gauges on the last verdict

	reg := f.obs.Metrics()
	changes := func(addr, change string) uint64 {
		return reg.Counter("gw_membership_changes_total", "", obs.L("backend", addr), obs.L("change", change)).Value()
	}
	ejects, readmits := changes(order[0], "eject"), changes(order[0], "readmit")
	if ejects != cycles/2 || readmits != cycles/2 {
		t.Fatalf("%d ejects and %d readmits over %d flap cycles, want %d each", ejects, readmits, cycles, cycles/2)
	}
	for _, addr := range order[1:] {
		if n := changes(addr, "eject") + changes(addr, "readmit"); n != 0 {
			t.Fatalf("steady backend %s recorded %d membership changes, want 0", addr, n)
		}
	}
	up := reg.Gauge("gw_backend_up", "", obs.L("backend", order[0])).Value()
	if (up == 1) != breaker.Routable() {
		t.Fatalf("gw_backend_up = %d diverged from breaker state", up)
	}
}

// TestFlappingBackendLosesNoSession: a backend that goes down and comes
// back every cycle is readmitted by the next good probe, and no session
// is lost to it — a session that meets it down fails over before the
// client has seen a byte. This is why the breaker needs no cooldown
// (DESIGN §14).
func TestFlappingBackendLosesNoSession(t *testing.T) {
	f := newFleet(t, 3, nil)
	flapper := f.backends[f.routeOrder(true)[0]]
	setDown := func(down bool) {
		flapper.mu.Lock()
		flapper.down = down
		flapper.mu.Unlock()
	}
	const cycles = 5
	for i := 0; i < cycles; i++ {
		setDown(true)
		// The first session of a cycle meets the flapper down unless
		// the probe already took it out; either way it is served.
		for j := 0; j < 2; j++ {
			out, err := runSession(t, f, &testHint)
			if err != nil {
				t.Fatalf("cycle %d, session %d with the flapper down: %v", i, j, err)
			}
			wantResult(t, out)
		}
		setDown(false)
		f.gw.ProbeNow()
		if !f.state(flapper.name).breaker.Routable() {
			t.Fatalf("cycle %d: a good probe did not readmit the flapper", i)
		}
		out, err := runSession(t, f, &testHint)
		if err != nil {
			t.Fatalf("cycle %d, session with the flapper back: %v", i, err)
		}
		wantResult(t, out)
	}
	f.drain()
	if got := f.totalServed(); got != 3*cycles {
		t.Fatalf("fleet served %d sessions, want %d", got, 3*cycles)
	}
	if flapper.servedCount() == 0 {
		t.Fatal("the readmitted flapper never served: readmission gave it no work")
	}
}

// TestFleetOutageShedsAfterMaxFailovers: with every backend down, each
// session is shed with BUSY after at most MaxFailovers+1 dials. Once
// every breaker is open the dead fleet is not dialed at all until a
// ProbeInterval has passed without a failure; then one session trials
// the open backends, still at most MaxFailovers+1 of them, and the next
// is shed without a dial. A dead fleet's dial load is bounded per
// session and per backend without a retry budget (DESIGN §14).
func TestFleetOutageShedsAfterMaxFailovers(t *testing.T) {
	clock := newTestClock()
	f := newFleet(t, 4, func(cfg *Config) {
		cfg.Now = clock.Now
		cfg.MaxFailovers = 2
	})
	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = true
		fb.mu.Unlock()
	}
	reg := f.obs.Metrics()
	dials := func() uint64 {
		return reg.Counter("gw_failovers_total", "", obs.L("reason", "dial")).Value()
	}
	sessions := 0
	shed := func() uint64 {
		t.Helper()
		sessions++
		before := dials()
		_, err := runSession(t, f, &testHint)
		var be *protocol.BusyError
		if !errors.As(err, &be) {
			t.Fatalf("session %d: want a BUSY shed from a dead fleet, got %v", sessions, err)
		}
		return dials() - before
	}
	// EjectAfter is 2: four sessions open all four breakers.
	for f.gw.routable() > 0 {
		if sessions == 4 {
			t.Fatalf("%d backends still routable after %d shed sessions", f.gw.routable(), sessions)
		}
		if n := shed(); n == 0 || n > 3 {
			t.Fatalf("session %d dialed %d candidates, want 1 to MaxFailovers+1 = 3", sessions, n)
		}
	}
	if n := shed(); n != 0 {
		t.Fatalf("session %d dialed %d backends with every breaker open, want 0", sessions, n)
	}
	clock.Advance(f.gw.cfg.ProbeInterval)
	if n := shed(); n != 3 {
		t.Fatalf("session %d, a probe interval later, dialed %d open backends, want MaxFailovers+1 = 3", sessions, n)
	}
	if n := shed(); n != 0 {
		t.Fatalf("session %d dialed %d backends right after the trial, want 0", sessions, n)
	}
	if got := reg.Counter("gw_shed_total", "").Value(); got != uint64(sessions) {
		t.Fatalf("gw_shed_total = %d, want %d", got, sessions)
	}
}

// TestTrialGoesToOneSession: sessions routed at once, a probe interval
// after an open backend's last failure, race for its trial; exactly one
// gets it, and none until the interval has passed.
func TestTrialGoesToOneSession(t *testing.T) {
	clock := newTestClock()
	f := newFleet(t, 3, func(cfg *Config) { cfg.Now = clock.Now })
	open := f.backends["backend-0"]
	open.mu.Lock()
	open.status = obs.HealthOverloaded
	open.mu.Unlock()
	f.gw.ProbeNow()
	f.gw.ProbeNow()
	offered := func() int {
		var n atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, b := range f.gw.route(testHint, true) {
					if b.Addr == open.name {
						n.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return int(n.Load())
	}
	if n := offered(); n != 0 {
		t.Fatalf("open backend offered to %d sessions within a probe interval of its failure, want 0", n)
	}
	clock.Advance(f.gw.cfg.ProbeInterval)
	if n := offered(); n != 1 {
		t.Fatalf("open backend offered to %d of 8 concurrent sessions, want 1", n)
	}
}

// testClock is an injectable clock for the ejector's cooldown and the
// breaker's trial interval.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
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
			found = st.Ejected && st.LatencyEWMAMs > 100 && st.Healthy
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
// fleet whose probes are absent or stale: after every breaker opens
// (dead fleet), the open backends trail the route order once a probe
// interval has passed, so once the fleet revives, a session's
// successful handshake readmits the backend it landed on — no probe
// required.
func TestBreakerTrialReadmitsByTraffic(t *testing.T) {
	clock := newTestClock()
	f := newFleet(t, 3, func(cfg *Config) { cfg.Now = clock.Now })
	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = true
		fb.mu.Unlock()
	}
	// Two shed sessions are enough to open every breaker (EjectAfter=2,
	// each session dials all three candidates).
	for i := 0; i < 2; i++ {
		if _, err := runSession(t, f, &testHint); err == nil {
			t.Fatal("session succeeded against a dead fleet")
		}
	}
	if n := f.gw.routable(); n != 0 {
		t.Fatalf("%d backends still routable after the fleet died", n)
	}

	for _, fb := range f.backends {
		fb.mu.Lock()
		fb.down = false
		fb.mu.Unlock()
	}
	clock.Advance(f.gw.cfg.ProbeInterval)
	out, err := runSession(t, f, &testHint)
	if err != nil {
		t.Fatalf("session failed against a revived fleet: %v", err)
	}
	wantResult(t, out)
	f.drain()
	if got := f.totalServed(); got != 1 {
		t.Fatalf("fleet served %d sessions, want 1", got)
	}
	if n := f.gw.routable(); n != 1 {
		t.Fatalf("%d backends readmitted by one session, want exactly 1", n)
	}
}

package gateway

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/protocol/retry"
	"maxelerator/internal/wire"
)

// fakeBackend is one in-process garbler daemon on a loopback TCP
// listener: every accepted connection gets a real protocol.Server
// session (or a scripted BUSY / hang-up), so gateway tests exercise the
// same bytes, sockets and relay path production does. A net.Pipe would
// not do: it has no buffer, so a backend writing its hello while the
// gateway writes the client's hint would deadlock.
type fakeBackend struct {
	name string
	ln   net.Listener

	mu     sync.Mutex
	srv    *protocol.Server
	served int // requests served to completion (every test session makes one)
	busy   int // connections to reject with BUSY before serving again
	hangup int // connections to close before the hello
	down   bool
	status string   // probe verdict
	shapes []string // advertised pool shapes
	// open counts accepted connections not yet served out; idle is
	// broadcast when it drops to zero. A WaitGroup would not do: the
	// accept goroutine's Add and a test's Wait are ordered only through
	// TCP, which the race detector does not see.
	open int
	idle sync.Cond
}

var testMatrix = [][]int64{{2, 3}}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{name: name, ln: ln, srv: srv, status: obs.HealthOK}
	fb.idle.L = &fb.mu
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.open++
			fb.mu.Unlock()
			go fb.serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		fb.wait()
	})
	return fb
}

// wait returns once every connection fb accepted has been served out.
func (fb *fakeBackend) wait() {
	fb.mu.Lock()
	for fb.open > 0 {
		fb.idle.Wait()
	}
	fb.mu.Unlock()
}

func (fb *fakeBackend) dial() (net.Conn, error) {
	fb.mu.Lock()
	down := fb.down
	fb.mu.Unlock()
	if down {
		return nil, fmt.Errorf("dial %s: %w", fb.name, wire.ErrClosed)
	}
	return net.DialTimeout("tcp", fb.ln.Addr().String(), time.Second)
}

// reject scripts fb's next connections: the first hangup of them are
// closed before the hello, the busy after those get a BUSY rejection.
// It takes fb.mu because TCP orders nothing for the race detector.
func (fb *fakeBackend) reject(busy, hangup int) {
	fb.mu.Lock()
	fb.busy, fb.hangup = busy, hangup
	fb.mu.Unlock()
}

func (fb *fakeBackend) serve(c net.Conn) {
	defer func() {
		c.Close()
		fb.mu.Lock()
		if fb.open--; fb.open == 0 {
			fb.idle.Broadcast()
		}
		fb.mu.Unlock()
	}()
	fb.mu.Lock()
	srv, hangup, busy := fb.srv, fb.hangup > 0, fb.busy > 0
	if hangup {
		fb.hangup--
	} else if busy {
		fb.busy--
	}
	fb.mu.Unlock()
	switch {
	case hangup:
		return
	case busy:
		protocol.SendBusy(wire.NewStreamConn(c), 5*time.Millisecond)
		// Closing with the client's preface unread would reset the
		// connection, and the reset can overtake the BUSY frame. Read
		// until the gateway hangs up.
		io.Copy(io.Discard, c)
		return
	}
	sess, err := srv.NewSession(wire.NewStreamConn(c), protocol.SessionConfig{})
	if err != nil {
		return
	}
	defer sess.Close()
	for {
		if _, err := sess.Serve(protocol.Request{Matrix: testMatrix}); err != nil {
			return
		}
		fb.mu.Lock()
		fb.served++
		fb.mu.Unlock()
	}
}

func (fb *fakeBackend) servedCount() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.served
}

// fleet wires N fake backends behind one gateway with injected dial
// and probe functions; the gateway serves a loopback TCP listener at
// addr.
type fleet struct {
	backends map[string]*fakeBackend
	gw       *Gateway
	obs      *obs.Obs
	addr     string
}

func newFleet(t *testing.T, n int, mutate func(*Config)) *fleet {
	t.Helper()
	f := &fleet{backends: make(map[string]*fakeBackend), obs: obs.New(8)}
	var cfg Config
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("backend-%d", i)
		f.backends[name] = newFakeBackend(t, name)
		cfg.Backends = append(cfg.Backends, Backend{Addr: name, HealthURL: "probe://" + name})
	}
	cfg.Obs = f.obs
	cfg.PeekTimeout = 50 * time.Millisecond
	cfg.EjectAfter = 2
	cfg.RetryAfter = 10 * time.Millisecond
	cfg.Dial = func(addr string) (net.Conn, error) {
		fb, ok := f.backends[addr]
		if !ok {
			return nil, fmt.Errorf("unknown backend %q", addr)
		}
		return fb.dial()
	}
	cfg.Probe = func(b Backend) (string, []string, error) {
		fb := f.backends[b.Addr]
		fb.mu.Lock()
		defer fb.mu.Unlock()
		if fb.down {
			return "", nil, fmt.Errorf("probe %s: unreachable", b.Addr)
		}
		return fb.status, fb.shapes, nil
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	f.addr = serveGateway(t, gw)
	t.Cleanup(gw.Close)
	return f
}

// serveGateway runs g.Serve on a fresh loopback listener until the test
// ends and returns the listener's address.
func serveGateway(t *testing.T, g *Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		g.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	return ln.Addr().String()
}

// dial opens a client connection to the gateway.
func (f *fleet) dial(t *testing.T) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

// handleNow routes one client connection on the calling goroutine, the
// way Serve would on its own.
func (f *fleet) handleNow(conn net.Conn) {
	f.gw.track(conn)
	f.gw.handle(conn)
}

// drain waits out every backend goroutine, so served counters are
// final before assertions.
func (f *fleet) drain() {
	for _, fb := range f.backends {
		fb.wait()
	}
}

// advertise makes the named backends (all of them when none is named)
// announce a pool for key, and runs the probe pass that tells the
// gateway.
func (f *fleet) advertise(key string, names ...string) {
	if len(names) == 0 {
		for name := range f.backends {
			names = append(names, name)
		}
	}
	for _, name := range names {
		fb := f.backends[name]
		fb.mu.Lock()
		fb.shapes = []string{key}
		fb.mu.Unlock()
	}
	f.gw.ProbeNow()
}

// state is the gateway's live view of the named backend.
func (f *fleet) state(addr string) *backendState {
	for _, b := range f.gw.states {
		if b.Addr == addr {
			return b
		}
	}
	return nil
}

// routeOrder is the candidate order route gives a session right now, by
// address.
func (f *fleet) routeOrder(hinted bool) []string {
	var out []string
	for _, b := range f.gw.route(testHint, hinted) {
		out = append(out, b.Addr)
	}
	return out
}

// totalServed sums completed serves across the fleet.
func (f *fleet) totalServed() int {
	total := 0
	for _, fb := range f.backends {
		total += fb.servedCount()
	}
	return total
}

var testHint = protocol.ShapeHint{Rows: 1, Cols: 2, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}

// runSession dials the gateway with an optional shape hint and runs
// one request end to end, returning the Dial error verbatim (BUSY
// shedding surfaces there).
func runSession(t *testing.T, f *fleet, hint *protocol.ShapeHint) ([]int64, error) {
	t.Helper()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if hint != nil {
		cli.WithShapeHint(*hint)
	}
	nc := f.dial(t)
	defer nc.Close()
	cs, err := cli.Dial(wire.NewStreamConn(nc))
	if err != nil {
		return nil, err
	}
	out, err := cs.Do([]int64{4, 5})
	if err != nil {
		return nil, err
	}
	if err := cs.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

func wantResult(t *testing.T, out []int64) {
	t.Helper()
	if len(out) != 1 || out[0] != 2*4+3*5 {
		t.Fatalf("result = %v, want [23]", out)
	}
}

// TestHintedSessionsSpreadOverAdvertisers is the routing contract for
// the fleet the daemon makes: every backend advertises the model's
// shape from boot, so sequential same-shape sessions rotate through all
// of them — each pre-garbled pool is used, none is parked on.
func TestHintedSessionsSpreadOverAdvertisers(t *testing.T) {
	f := newFleet(t, 3, nil)
	f.advertise(testHint.Key())
	const sessions = 9
	for i := 0; i < sessions; i++ {
		out, err := runSession(t, f, &testHint)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		wantResult(t, out)
	}
	f.drain()
	for name, fb := range f.backends {
		if got := fb.servedCount(); got != sessions/3 {
			t.Fatalf("%s served %d of %d sessions, want %d", name, got, sessions, sessions/3)
		}
		if got := f.obs.Metrics().Counter("gw_sessions_total", "", obs.L("backend", name)).Value(); got != sessions/3 {
			t.Fatalf("gw_sessions_total{%s} = %d", name, got)
		}
	}
	if got := f.obs.Metrics().Counter(obs.MetricHintMisses, "", obs.L("shape", testHint.Key())).Value(); got != 0 {
		t.Fatalf("%s = %d on a fleet that advertises the shape", obs.MetricHintMisses, got)
	}
}

// TestConcurrentHintedSessionsUseTwoBackends: two same-shape sessions
// held open at once sit on two different advertisers — in-flight load
// decides before anything else does.
func TestConcurrentHintedSessionsUseTwoBackends(t *testing.T) {
	f := newFleet(t, 3, nil)
	f.advertise(testHint.Key())
	for i := 0; i < 2; i++ {
		cli, err := protocol.NewClient(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		cli.WithShapeHint(testHint)
		nc := f.dial(t)
		defer nc.Close()
		// A completed Dial proves the session is committed and counted.
		if _, err := cli.Dial(wire.NewStreamConn(nc)); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	busy := 0
	for _, st := range f.gw.Snapshot() {
		if st.Active > 1 {
			t.Fatalf("%s carries %d sessions while other advertisers idle", st.Addr, st.Active)
		}
		busy += int(st.Active)
	}
	if busy != 2 {
		t.Fatalf("%d sessions in flight, want 2: %+v", busy, f.gw.Snapshot())
	}
}

// TestUnhintedSessionRoutesAndServes pins backward compatibility: a
// client that never sends the preface (every pre-gateway client) still
// gets served — the peek times out and the session routes by load.
func TestUnhintedSessionRoutesAndServes(t *testing.T) {
	f := newFleet(t, 2, nil)
	out, err := runSession(t, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	f.drain()
	if got := f.totalServed(); got != 1 {
		t.Fatalf("fleet served %d sessions, want 1", got)
	}
	if got := f.obs.Metrics().Counter("gw_peeks_total", "", obs.L("result", "none")).Value(); got != 1 {
		t.Fatalf("gw_peeks_total{none} = %d", got)
	}
}

// TestBusyFailoverNeverDoubleServes is the chaos test for the
// single-serve guarantee: the first candidate rejects with BUSY and the
// second one hangs up before its hello, yet the session lands exactly
// once — on the third candidate — and the client sees one clean result.
func TestBusyFailoverNeverDoubleServes(t *testing.T) {
	f := newFleet(t, 3, nil)
	order := f.routeOrder(true)
	f.backends[order[0]].reject(1, 0)
	f.backends[order[1]].reject(0, 1)

	out, err := runSession(t, f, &testHint)
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	f.drain()
	if got := f.totalServed(); got != 1 {
		t.Fatalf("fleet served %d sessions, want exactly 1", got)
	}
	if got := f.backends[order[2]].servedCount(); got != 1 {
		t.Fatalf("third candidate served %d, want 1", got)
	}
	reg := f.obs.Metrics()
	if got := reg.Counter("gw_failovers_total", "", obs.L("reason", "busy")).Value(); got != 1 {
		t.Fatalf("gw_failovers_total{busy} = %d", got)
	}
	if got := reg.Counter("gw_failovers_total", "", obs.L("reason", "dial")).Value(); got != 1 {
		t.Fatalf("gw_failovers_total{dial} = %d", got)
	}
}

// TestDeadBackendFailsOver covers the kill case: the first candidate's
// dial refuses outright and the session transparently lands on the next
// one.
func TestDeadBackendFailsOver(t *testing.T) {
	f := newFleet(t, 2, nil)
	order := f.routeOrder(true)
	dead := f.backends[order[0]]
	dead.mu.Lock()
	dead.down = true
	dead.mu.Unlock()

	out, err := runSession(t, f, &testHint)
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	f.drain()
	if got := f.backends[order[1]].servedCount(); got != 1 {
		t.Fatalf("second candidate served %d, want 1", got)
	}
}

// TestAllBusySheds pins the exhaustion path: when every candidate
// rejects, the gateway sends its own BUSY so the client's existing
// retry taxonomy applies — the error must classify exactly like a
// single overloaded server's.
func TestAllBusySheds(t *testing.T) {
	f := newFleet(t, 3, nil)
	for _, fb := range f.backends {
		fb.reject(10, 0)
	}
	_, err := runSession(t, f, &testHint)
	var be *protocol.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("expected BusyError, got %v", err)
	}
	if be.RetryAfter <= 0 {
		t.Fatalf("shed without a retry hint: %+v", be)
	}
	f.drain()
	if got := f.totalServed(); got != 0 {
		t.Fatalf("fleet served %d sessions while shedding", got)
	}
	if got := f.obs.Metrics().Counter("gw_shed_total", "").Value(); got != 1 {
		t.Fatalf("gw_shed_total = %d", got)
	}
}

// testClock is an injectable clock for breaker-cooldown tests.
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

// TestProbeEjectsAndReadmits drives the breaker-driven membership
// machine: consecutive failed probes trip the breaker and take a
// backend out of routing (sessions reroute); a healthy probe readmits
// it only after the breaker's cooldown — a lucky probe mid-cooldown
// must not flap the membership.
func TestProbeEjectsAndReadmits(t *testing.T) {
	clock := newTestClock()
	const cooldown = 5 * time.Second
	f := newFleet(t, 3, func(cfg *Config) {
		cfg.Now = clock.Now
		cfg.BreakerCooldown = cooldown
	})
	first := f.routeOrder(true)[0]
	primary := f.backends[first]
	routable := f.state(first).breaker.Routable

	primary.mu.Lock()
	primary.status = obs.HealthOverloaded
	primary.mu.Unlock()
	f.gw.ProbeNow()
	if !routable() {
		t.Fatal("one failed probe ejected the backend (EjectAfter is 2)")
	}
	f.gw.ProbeNow()
	if routable() {
		t.Fatal("backend not ejected after EjectAfter consecutive failures")
	}
	if got := f.gw.healthVerdict(); got != obs.HealthDegraded {
		t.Fatalf("gateway health = %q with a partial fleet", got)
	}

	out, err := runSession(t, f, &testHint)
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	f.drain()
	if got := primary.servedCount(); got != 0 {
		t.Fatalf("ejected backend served %d sessions", got)
	}

	// Hysteresis: healthy probes inside the cooldown are ignored.
	primary.mu.Lock()
	primary.status = obs.HealthOK
	primary.mu.Unlock()
	f.gw.ProbeNow()
	if routable() {
		t.Fatal("healthy probe mid-cooldown readmitted the backend")
	}

	// Past the cooldown the next healthy probe is the half-open trial
	// and readmits.
	clock.Advance(cooldown + time.Second)
	f.gw.ProbeNow()
	if !routable() {
		t.Fatal("healthy probe after the cooldown did not readmit the backend")
	}
	if got := f.gw.healthVerdict(); got != obs.HealthOK {
		t.Fatalf("gateway health = %q with a full fleet", got)
	}
}

// TestAdvertisedShapePreferred: a backend that announces a pool for
// the exact shape outranks everything but a latency ejection, and the
// snapshot shows what it announced.
func TestAdvertisedShapePreferred(t *testing.T) {
	f := newFleet(t, 3, nil)
	order := f.routeOrder(true)
	f.advertise(testHint.Key(), order[2]) // last candidate while nobody advertises

	candidates := f.gw.route(testHint, true)
	if len(candidates) != 3 {
		t.Fatalf("%d candidates", len(candidates))
	}
	if candidates[0].Addr != order[2] {
		t.Fatalf("first candidate %s, want advertising backend %s", candidates[0].Addr, order[2])
	}
	snap := f.gw.Snapshot()
	var found bool
	for _, st := range snap {
		if st.Addr == order[2] {
			found = len(st.Shapes) == 1 && st.Shapes[0] == testHint.Key()
		}
	}
	if !found {
		t.Fatalf("snapshot does not show the advertised shape: %+v", snap)
	}
}

// TestRouteOrder is the routing rule, row by row: among routable
// backends, latency-ejected last, then (hinted only) advertisers of the
// hint's key first, then fewest in flight, then fewest committed, then
// address; breaker-open backends appear only as a trailing trial.
func TestRouteOrder(t *testing.T) {
	const cooldown = 5 * time.Second
	key := testHint.Key()
	load := func(f *fleet, name string, active, sessions int64) {
		f.state(name).active.Store(active)
		f.state(name).sessions.Store(sessions)
	}
	// openBreaker fails backend-0's probes until its breaker trips.
	openBreaker := func(f *fleet) {
		fb := f.backends["backend-0"]
		fb.mu.Lock()
		fb.status = obs.HealthOverloaded
		fb.mu.Unlock()
		f.gw.ProbeNow()
		f.gw.ProbeNow()
	}
	for _, tc := range []struct {
		name   string
		hinted bool
		setup  func(f *fleet, clock *testClock)
		want   []string
		misses uint64
	}{
		// Least loaded; advertisement plays no part without a hint.
		{name: "unhinted",
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key, "backend-0")
				load(f, "backend-0", 5, 0)
				load(f, "backend-1", 1, 0)
				load(f, "backend-2", 3, 0)
			},
			want: []string{"backend-1", "backend-2", "backend-0"}},
		{name: "hinted-all-advertise", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key)
				load(f, "backend-0", 2, 0)
				load(f, "backend-1", 0, 9)
				load(f, "backend-2", 1, 0)
			},
			want: []string{"backend-1", "backend-2", "backend-0"}},
		// Equal in-flight: fewest committed, then address.
		{name: "hinted-idle-tie", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key)
				load(f, "backend-0", 0, 2)
				load(f, "backend-1", 0, 1)
				load(f, "backend-2", 0, 1)
			},
			want: []string{"backend-1", "backend-2", "backend-0"}},
		// The advertiser beats idle non-advertisers.
		{name: "hinted-one-advertises", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key, "backend-2")
				load(f, "backend-2", 4, 7)
			},
			want: []string{"backend-2", "backend-0", "backend-1"}},
		{name: "hinted-nobody-advertises", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				load(f, "backend-0", 1, 0)
				load(f, "backend-1", 0, 3)
				load(f, "backend-2", 0, 1)
			},
			want: []string{"backend-2", "backend-1", "backend-0"}, misses: 1},
		// Last, not removed.
		{name: "advertiser-latency-ejected", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key, "backend-0")
				for i := 0; i < 3; i++ {
					f.gw.ejector.Observe("backend-0", 500*time.Millisecond)
					f.gw.ejector.Observe("backend-1", 10*time.Millisecond)
					f.gw.ejector.Observe("backend-2", 12*time.Millisecond)
				}
				f.gw.ProbeNow() // runs the sweep
			},
			want: []string{"backend-1", "backend-2", "backend-0"}},
		// Mid-cooldown: absent.
		{name: "advertiser-breaker-open", hinted: true,
			setup: func(f *fleet, _ *testClock) {
				f.advertise(key, "backend-0")
				openBreaker(f)
			},
			want: []string{"backend-1", "backend-2"}, misses: 1},
		// Past the cooldown: the trailing trial.
		{name: "advertiser-breaker-open-trial-ready", hinted: true,
			setup: func(f *fleet, clock *testClock) {
				f.advertise(key, "backend-0")
				openBreaker(f)
				clock.Advance(cooldown + time.Second)
			},
			want: []string{"backend-1", "backend-2", "backend-0"}, misses: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newTestClock()
			f := newFleet(t, 3, func(cfg *Config) {
				cfg.Now = clock.Now
				cfg.BreakerCooldown = cooldown
				cfg.OutlierK = 2
				cfg.OutlierMinSamples = 3
			})
			tc.setup(f, clock)
			if got := f.routeOrder(tc.hinted); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("route order %v, want %v", got, tc.want)
			}
			if got := f.obs.Metrics().Counter(obs.MetricHintMisses, "", obs.L("shape", key)).Value(); got != tc.misses {
				t.Fatalf("%s = %d, want %d", obs.MetricHintMisses, got, tc.misses)
			}
		})
	}
}

// TestClientGoneDuringPeek: a client that connects and immediately
// vanishes must not consume a backend.
func TestClientGoneDuringPeek(t *testing.T) {
	f := newFleet(t, 2, nil)
	gwSide, cliSide := net.Pipe()
	cliSide.Close()
	f.handleNow(gwSide) // returns once the peek fails
	f.drain()
	if got := f.totalServed(); got != 0 {
		t.Fatalf("fleet served %d sessions for a vanished client", got)
	}
	if got := f.obs.Metrics().Counter("gw_peek_errors_total", "").Value(); got != 1 {
		t.Fatalf("gw_peek_errors_total = %d", got)
	}
}

// TestOversizedPrefaceRefusedAtPeek: the routing peek reads under the
// set-up receive cap, so a client whose first length prefix announces
// 64 MiB is dropped at the peek — no buffer of that size, no backend
// consumed.
func TestOversizedPrefaceRefusedAtPeek(t *testing.T) {
	f := newFleet(t, 2, nil)
	p1, p2 := net.Pipe()
	defer p2.Close()
	go p2.Write([]byte{0x04, 0x00, 0x00, 0x00})
	f.handleNow(p1) // returns once the peek fails
	f.drain()
	if got := f.totalServed(); got != 0 {
		t.Fatalf("fleet served %d sessions for an over-cap preface", got)
	}
	if got := f.obs.Metrics().Counter("gw_peek_errors_total", "").Value(); got != 1 {
		t.Fatalf("gw_peek_errors_total = %d", got)
	}
}

// TestRetryLayerRidesFailover: the client-side ReDialer composes with
// the gateway — a BUSY-shedding fleet that recovers between attempts
// is healed by the existing retry taxonomy without the client
// distinguishing gateway BUSY from backend BUSY.
func TestRetryLayerRidesFailover(t *testing.T) {
	f := newFleet(t, 2, nil)
	for _, fb := range f.backends {
		fb.reject(2, 0) // both replicas reject the first two session attempts
	}
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithShapeHint(testHint)
	rd, err := retry.NewReDialer(cli, func() (wire.Conn, error) {
		nc, err := net.Dial("tcp", f.addr)
		if err != nil {
			return nil, err
		}
		return wire.NewStreamConn(nc), nil
	}, retry.Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rd.Do([]int64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	// Close before draining: the backend's Serve returns (and counts the
	// session) only after the end-of-session marker the Close sends.
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	f.drain()
	if got := f.totalServed(); got != 1 {
		t.Fatalf("fleet served %d sessions, want 1", got)
	}
}

// TestDrainCleanWhenSessionsFinish: with every relayed session already
// over, Drain reports clean within the deadline and the draining gauge
// ends at zero.
func TestDrainCleanWhenSessionsFinish(t *testing.T) {
	f := newFleet(t, 1, nil)
	out, err := runSession(t, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	if !f.gw.Drain(5 * time.Second) {
		t.Fatal("gateway did not drain after its only session finished")
	}
	reg := f.obs.Metrics()
	if got := reg.Gauge("gw_draining", "").Value(); got != 0 {
		t.Fatalf("gw_draining = %d after a clean drain, want 0", got)
	}
}

// TestDrainDeadlineEscalatesToClose mirrors maxd's shutdown sequence
// from the gateway side: an idle-but-open session holds the drain past
// its deadline (gauge at 1), KillSessions force-closes it, and the
// follow-up drain observes the relay unwind.
func TestDrainDeadlineEscalatesToClose(t *testing.T) {
	f := newFleet(t, 1, nil)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nc := f.dial(t)
	defer nc.Close()
	// A completed Dial proves the session is committed and relaying;
	// the client then goes idle without closing, so it can never drain
	// on its own.
	if _, err := cli.Dial(wire.NewStreamConn(nc)); err != nil {
		t.Fatal(err)
	}

	if f.gw.Drain(50 * time.Millisecond) {
		t.Fatal("gateway drained with a session still open")
	}
	reg := f.obs.Metrics()
	if got := reg.Gauge("gw_draining", "").Value(); got != 1 {
		t.Fatalf("gw_draining = %d past the drain deadline, want 1", got)
	}

	f.gw.KillSessions()
	if !f.gw.Drain(5 * time.Second) {
		t.Fatal("hard close did not unwind the relayed session")
	}
	if got := reg.Gauge("gw_draining", "").Value(); got != 0 {
		t.Fatalf("gw_draining = %d after escalation drained, want 0", got)
	}
	if got := reg.Gauge("gw_sessions_active", "").Value(); got != 0 {
		t.Fatalf("gw_sessions_active = %d after escalation drained, want 0", got)
	}
}

// Package gateway is the garbler fleet's front door: a session-granular
// router whose rule is one sentence — among the backends whose breaker
// is routable, those advertising the session's shape first, then the
// least loaded.
//
// Every maxd serves one model and advertises its one pool shape from
// boot, so there is nothing to learn from traffic and nothing to pin:
// spreading same-shape sessions over every advertiser is what keeps all
// the pre-garbled pools in use. The protocol is server-first (the
// garbler speaks hello before the client sends anything), so a passive
// proxy cannot read the shape from traffic it forwards. Instead, hinted
// clients open with a shape-hint preface frame (protocol.ShapeHint);
// the gateway peeks it under a short deadline, orders the routable
// backends (see route) and, once a backend has answered, copies bytes
// both ways for the rest of the session without parsing a frame.
// Unhinted (and legacy) clients send nothing first — the peek times out
// and the session gets the same ordering without the advertiser term.
//
// Failover is pre-handshake only, which makes it provably
// single-serve: a backend is abandoned only when dialing it fails or
// its first frame is a BUSY rejection — in both cases the client has
// not yet seen one byte from that backend and no request state exists
// anywhere, so trying the next candidate can never double-serve a
// request. Once a backend's hello is forwarded the session is
// committed and any later fault surfaces to the client's own retry
// layer (internal/protocol/retry), which replays safely by the
// fresh-labels-per-garbling argument.
package gateway

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/resilience"
	"maxelerator/internal/wire"
)

// Config shapes one Gateway.
type Config struct {
	// Backends is the fleet (at least one).
	Backends []Backend
	// PeekTimeout bounds the wait for a client's optional shape-hint
	// preface; on expiry the session routes unhinted. Default 75ms.
	PeekTimeout time.Duration
	// MaxFailovers caps how many additional backends a session tries
	// after its first candidate fails pre-handshake. Default 2.
	MaxFailovers int
	// ProbeInterval is the health-poll period. Default 2s.
	ProbeInterval time.Duration
	// EjectAfter is how many consecutive failures — probe verdicts and
	// routing-time handshake results feed the same counter — trip a
	// backend's circuit breaker open, which takes it out of routing.
	// Default 3.
	EjectAfter int
	// BreakerCooldown is the base open-state dwell before the breaker's
	// half-open readmission trial; it doubles on every re-trip before a
	// full recovery (hysteresis against flapping), capped at
	// 8×BreakerCooldown. Default 5s.
	BreakerCooldown time.Duration
	// OutlierK is the latency-ejection cutoff: a backend whose
	// handshake-latency EWMA exceeds K times the fleet median is
	// demoted to last-resort candidate. Default 3.
	OutlierK float64
	// OutlierMinSamples is how many latency samples a backend needs
	// before its EWMA is trusted for ejection. Default 5.
	OutlierMinSamples int
	// OutlierCooldown is how long a latency ejection lasts; on expiry
	// the backend re-enters on probation. Default 10s.
	OutlierCooldown time.Duration
	// RetryBudget is the sustained failover allowance as a fraction of
	// arriving sessions: beyond the burst, at most this fraction of
	// sessions may fail over to another backend before the gateway
	// sheds with BUSY instead. Default 0.2.
	RetryBudget float64
	// RetryBudgetMin is the burst allowance a cold gateway starts with
	// (failover attempts permitted before the ratio governs). Default
	// 10; negative means no burst.
	RetryBudgetMin float64
	// RetryAfter is the backoff hint sent with the gateway's own BUSY
	// rejection when every candidate failed. Default 200ms.
	RetryAfter time.Duration
	// Logf receives rate-limited operational log lines (breaker
	// transitions, hint misses). Nil silences them.
	Logf func(format string, args ...any)
	// Now is the clock behind the breakers, the latency ejector and
	// handshake timing; tests inject a fake. Default time.Now.
	Now func() time.Time
	// Obs receives the gateway's metrics and health; nil disables
	// observability (the repo-wide nil-Obs contract).
	Obs *obs.Obs
	// Dial opens a connection to a backend Addr. Nil uses
	// net.DialTimeout over TCP.
	Dial func(addr string) (net.Conn, error)
	// Probe asks a backend for health and advertised shapes. Nil uses
	// the HTTP prober against Backend.HealthURL.
	Probe ProbeFunc

	// onTransition, when set by tests, observes every breaker
	// transition (in delivery order, under the breaker's lock) so the
	// flapping tests can assert monotonicity without reaching into the
	// breakers.
	onTransition func(addr string, tr resilience.Transition)
}

const (
	// helloTimeout bounds the wait for a dialed backend's first frame
	// (its hello or a BUSY rejection), and one health probe.
	helloTimeout = 3 * time.Second
	// dialTimeout bounds each backend dial.
	dialTimeout = 2 * time.Second
	// hintMissLogEvery rate-limits the "shape hint matches no
	// advertised backend" log line.
	hintMissLogEvery = 5 * time.Second
)

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.PeekTimeout <= 0 {
		c.PeekTimeout = 75 * time.Millisecond
	}
	if c.MaxFailovers <= 0 {
		c.MaxFailovers = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 200 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
	if c.Probe == nil {
		c.Probe = httpProbe(&http.Client{Timeout: helloTimeout})
	}
	return c
}

// Gateway routes client sessions across a garbler fleet. Create with
// New, optionally Start the health prober, feed it connections via
// Serve, and Close to stop.
type Gateway struct {
	cfg     Config
	states  []*backendState // config order; membership is breaker.Routable()
	reg     *obs.Registry
	ejector *resilience.Ejector
	budget  *resilience.Budget

	hintMu       sync.Mutex
	lastHintMiss time.Time

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	// Drain support: every relayed client connection is tracked so a
	// shutdown can first wait for sessions to finish on their own, then
	// escalate to closing them.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	sessWG sync.WaitGroup
}

// New builds a gateway over the configured fleet. Every backend starts
// routable (optimistic: the prober corrects within one interval, and a
// dead backend fails fast at dial time anyway).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:   cfg,
		reg:   cfg.Obs.Metrics(),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		ejector: resilience.NewEjector(resilience.EjectorConfig{
			K:          cfg.OutlierK,
			MinSamples: cfg.OutlierMinSamples,
			Cooldown:   cfg.OutlierCooldown,
			Now:        cfg.Now,
		}),
		budget: resilience.NewBudget(resilience.BudgetConfig{
			Ratio:     cfg.RetryBudget,
			MinTokens: cfg.RetryBudgetMin,
		}),
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Addr == "" {
			return nil, fmt.Errorf("gateway: backend with empty address")
		}
		if seen[b.Addr] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", b.Addr)
		}
		seen[b.Addr] = true
		st := &backendState{Backend: b, status: obs.HealthOK}
		st.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.EjectAfter,
			Cooldown:  cfg.BreakerCooldown,
			Now:       cfg.Now,
			OnTransition: func(tr resilience.Transition) {
				g.onBreakerTransition(st, tr)
			},
		})
		g.states = append(g.states, st)
		g.reg.BreakerState(b.Addr).Set(obs.BreakerStateClosed)
	}
	cfg.Obs.SetHealth(g.healthVerdict)
	g.publishMembership()
	g.publishBudget()
	return g, nil
}

// Start launches the background health prober.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go g.probeLoop()
}

// Close stops the prober. In-flight sessions drain on their own
// connections; the caller closes its listener separately.
func (g *Gateway) Close() {
	g.stopped.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Drain waits up to timeout for every in-flight relayed session to
// finish on its own, reporting whether the gateway emptied in time.
// The caller must have stopped feeding connections first (closed its
// listener). While waiting — and after an expired deadline — the
// gw_draining gauge reads 1, so fleet dashboards can tell a draining
// gateway from a serving one; it drops back to 0 once the gateway is
// empty. On expiry the caller escalates with KillSessions and calls
// Drain again for the hard-close grace period, mirroring maxd's
// drain/escalate shutdown.
func (g *Gateway) Drain(timeout time.Duration) bool {
	draining := g.reg.Gauge("gw_draining", "1 while the gateway is draining in-flight sessions")
	draining.Set(1)
	done := make(chan struct{})
	go func() {
		g.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		draining.Set(0)
		return true
	case <-time.After(timeout):
		return false
	}
}

// KillSessions force-closes every tracked client connection. The relay's
// copies see the close as a terminal error and tear down their backend
// side, so a follow-up Drain observes the sessions unwind.
func (g *Gateway) KillSessions() {
	g.connMu.Lock()
	defer g.connMu.Unlock()
	for c := range g.conns {
		c.Close()
	}
}

// Serve accepts connections from l and routes each on its own
// goroutine, until Accept fails (closing the listener is the shutdown
// signal). Each connection is counted and registered before its
// goroutine starts, so a Drain or KillSessions that follows Serve's
// return sees every session it accepted.
func (g *Gateway) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		g.track(nc)
		go g.handle(nc)
	}
}

// track counts conn as an in-flight session and registers it for
// KillSessions; handle undoes both.
func (g *Gateway) track(conn net.Conn) {
	g.sessWG.Add(1)
	g.connMu.Lock()
	g.conns[conn] = struct{}{}
	g.connMu.Unlock()
}

// handle routes one tracked client session end to end: peek, pick,
// relay. It closes conn before returning.
func (g *Gateway) handle(conn net.Conn) {
	defer g.sessWG.Done()
	defer func() {
		g.connMu.Lock()
		delete(g.conns, conn)
		g.connMu.Unlock()
	}()
	defer conn.Close()
	active := g.reg.Gauge("gw_sessions_active", "client sessions currently relayed")
	active.Add(1)
	defer active.Add(-1)

	pending, hint, hinted, err := g.peek(conn)
	if err != nil {
		// The client vanished before routing began; nothing to count
		// against any backend.
		g.reg.Counter("gw_peek_errors_total", "client connections lost during the routing peek").Inc()
		return
	}
	result := "none"
	if hinted {
		result = "hint"
	} else if pending != nil {
		result = "other"
	}
	g.reg.Counter("gw_peeks_total", "routing-peek outcomes", obs.L("result", result)).Inc()

	g.budget.Deposit()
	g.publishBudget()
	candidates := g.route(hint, hinted)
	if len(candidates) == 0 {
		g.shed(conn, nil)
		return
	}
	attempts := g.cfg.MaxFailovers + 1
	if attempts > len(candidates) {
		attempts = len(candidates)
	}
	var lastBusy *protocol.BusyError
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Every attempt beyond the session's first candidate is a
			// failover and must be paid for: an empty budget means the
			// fleet is failing broadly, and the cheapest thing this
			// session can do is shed fast rather than add dials.
			if !g.budget.Withdraw() {
				g.reg.Counter(obs.MetricRetryBudgetExhausted, obs.HelpRetryBudgetExhausted).Inc()
				break
			}
			g.publishBudget()
		}
		b := candidates[i]
		start := g.cfg.Now()
		backendConn, first, busy, err := g.connect(b, pending)
		switch {
		case err != nil:
			b.breaker.Observe(false)
			reason := "dial"
			if wire.IsTimeout(err) {
				reason = "timeout"
			}
			g.reg.Counter("gw_failovers_total", "pre-handshake backend failovers",
				obs.L("reason", reason)).Inc()
			continue
		case busy != nil:
			// BUSY is an orderly rejection from a live backend: it feeds
			// the breaker as a success (the backend answered promptly)
			// and the ejector not at all (no session was served).
			b.breaker.Observe(true)
			lastBusy = busy
			g.reg.Counter("gw_failovers_total", "pre-handshake backend failovers",
				obs.L("reason", "busy")).Inc()
			continue
		}
		b.breaker.Observe(true)
		g.ejector.Observe(b.Addr, g.cfg.Now().Sub(start))
		g.relay(conn, backendConn, b, first)
		return
	}
	g.shed(conn, lastBusy)
}

// peek waits up to PeekTimeout for the client's optional first frame.
// It returns the consumed frame (to forward verbatim), the decoded
// hint when the frame was one, and a non-nil error only when the
// client is gone. A timeout is the normal unhinted case.
func (g *Gateway) peek(conn net.Conn) (pending []byte, hint protocol.ShapeHint, hinted bool, err error) {
	conn.SetDeadline(time.Now().Add(g.cfg.PeekTimeout))
	frame, rerr := recvFirstFrame(conn)
	conn.SetDeadline(time.Time{})
	switch {
	case rerr == nil:
		hint, hinted = protocol.PeekShapeHint(frame)
		return frame, hint, hinted, nil
	case wire.IsTimeout(rerr):
		return nil, protocol.ShapeHint{}, false, nil
	default:
		return nil, protocol.ShapeHint{}, false, rerr
	}
}

// recvFirstFrame reads a connection's first frame — a hint, ack, hello
// or busy frame from a peer that has proven nothing yet — under the
// set-up receive cap. The stream conn reads unbuffered, so conn is left
// exactly on the next frame boundary for relay's byte copy. No frame is
// read after commit: from there on the endpoints' own phase caps are
// the only guard.
func recvFirstFrame(conn net.Conn) ([]byte, error) {
	sc := wire.NewStreamConn(conn)
	wire.LimitRecv(sc, wire.SetupFrameLimit)
	return sc.RecvMsg()
}

// route orders the backends for one session, hinted or not, with one
// comparison over those whose breaker is routable: latency-ejected
// backends last (an ejected backend is a worse bet than a hot one, but
// still better than shedding); for a hinted session, backends
// advertising the hint's key first (their pool is pre-garbled for it);
// then fewest sessions in flight; then fewest sessions committed so far,
// so an idle fleet rotates through every advertiser's pool instead of
// parking on one backend; then address. Breaker-open backends whose
// cooldown has expired are appended dead last — they are offered only
// so a handshake can serve as the half-open trial (the readmission path
// for backends with no health prober).
func (g *Gateway) route(hint protocol.ShapeHint, hinted bool) []*backendState {
	type candidate struct {
		b                *backendState
		ejected, cold    bool
		active, sessions int64
	}
	var key string
	if hinted {
		key = hint.Key()
	}
	advertised := false
	ordered := make([]candidate, 0, len(g.states))
	var trial []*backendState
	for _, b := range g.states {
		switch {
		case b.breaker.Routable():
			c := candidate{b: b, ejected: g.ejector.Ejected(b.Addr),
				active: b.active.Load(), sessions: b.sessions.Load()}
			if hinted {
				c.cold = !b.advertises(key)
				advertised = advertised || !c.cold
			}
			ordered = append(ordered, c)
		case b.breaker.TrialReady():
			trial = append(trial, b)
		}
	}
	if hinted && !advertised && len(ordered) > 0 {
		g.noteHintMiss(key)
	}
	sort.Slice(ordered, func(i, j int) bool {
		ci, cj := ordered[i], ordered[j]
		switch {
		case ci.ejected != cj.ejected:
			return cj.ejected
		case ci.cold != cj.cold:
			return cj.cold
		case ci.active != cj.active:
			return ci.active < cj.active
		case ci.sessions != cj.sessions:
			return ci.sessions < cj.sessions
		}
		return ci.b.Addr < cj.b.Addr
	})
	out := make([]*backendState, 0, len(ordered)+len(trial))
	for _, c := range ordered {
		out = append(out, c.b)
	}
	return append(out, trial...)
}

// connect dials one backend, forwards the client's pending preface
// frame (if any), and reads the backend's first frame. A BUSY first
// frame or any error abandons the backend with nothing committed —
// the failover-safe window.
func (g *Gateway) connect(b *backendState, pending []byte) (net.Conn, []byte, *protocol.BusyError, error) {
	conn, err := g.cfg.Dial(b.Addr)
	if err != nil {
		return nil, nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(helloTimeout))
	if pending != nil {
		if err := wire.NewStreamConn(conn).SendMsg(pending); err != nil {
			conn.Close()
			return nil, nil, nil, err
		}
	}
	first, err := recvFirstFrame(conn)
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	if busy, ok := protocol.PeekBusy(first); ok {
		conn.Close()
		return nil, nil, busy, nil
	}
	conn.SetDeadline(time.Time{})
	return conn, first, nil, nil
}

// relay commits the session to backend b: deliver the backend's first
// frame to the client, then copy bytes both directions until either
// side ends. Both conns sit on a frame boundary here, and the gateway
// parses nothing from now on; between two TCP conns io.Copy splices in
// the kernel on Linux, which is why the conns are copied unwrapped.
// From here on every fault belongs to the endpoints — the gateway never
// retries a committed session (see the package comment for why that is
// the single-serve guarantee).
func (g *Gateway) relay(client, backend net.Conn, b *backendState, first []byte) {
	defer backend.Close()
	b.sessions.Add(1)
	b.active.Add(1)
	defer b.active.Add(-1)
	g.reg.Counter("gw_sessions_total", "client sessions committed to a backend",
		obs.L("backend", b.Addr)).Inc()
	perBackend := g.reg.Gauge("gw_backend_sessions", "sessions in flight per backend",
		obs.L("backend", b.Addr))
	perBackend.Add(1)
	defer perBackend.Add(-1)

	if err := wire.NewStreamConn(client).SendMsg(first); err != nil {
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	copyThenClose := func(dst, src net.Conn) {
		defer wg.Done()
		io.Copy(dst, src)
		// Session over (orderly close or fault): tear down both sides so
		// the other copy unblocks too.
		client.Close()
		backend.Close()
	}
	go copyThenClose(client, backend)
	go copyThenClose(backend, client)
	wg.Wait()
}

// shed rejects the session the same way an overloaded backend would:
// a BUSY frame carrying a retry hint (the largest backend hint seen,
// floored at the configured RetryAfter), so hinted and unhinted
// clients alike land in their existing retry taxonomy.
func (g *Gateway) shed(conn net.Conn, lastBusy *protocol.BusyError) {
	retryAfter := g.cfg.RetryAfter
	if lastBusy != nil && lastBusy.RetryAfter > retryAfter {
		retryAfter = lastBusy.RetryAfter
	}
	g.reg.Counter("gw_shed_total", "sessions rejected after exhausting candidates").Inc()
	protocol.SendBusy(wire.NewStreamConn(conn), retryAfter)
}

// BackendStatus is one row of Snapshot: the operator view of a
// backend.
type BackendStatus struct {
	Addr     string   `json:"addr"`
	Healthy  bool     `json:"healthy"`
	Status   string   `json:"status"`
	Breaker  string   `json:"breaker"`
	Active   int64    `json:"active_sessions"`
	Sessions int64    `json:"sessions_total"`
	Shapes   []string `json:"advertised_shapes,omitempty"`
	// LatencyEWMAMs is the handshake-latency estimate behind outlier
	// ejection; zero until the first committed session.
	LatencyEWMAMs float64 `json:"latency_ewma_ms,omitempty"`
	// Ejected reports an active latency ejection (the backend is
	// demoted to last-resort, not removed).
	Ejected bool `json:"ejected,omitempty"`
}

// Snapshot reports the fleet state in config order — the payload of
// maxgw's /fleetz endpoint and maxtop's fleet panel.
func (g *Gateway) Snapshot() []BackendStatus {
	out := make([]BackendStatus, 0, len(g.states))
	for _, b := range g.states {
		ewma, _ := g.ejector.EWMA(b.Addr)
		st := BackendStatus{
			Addr: b.Addr, Healthy: b.breaker.Routable(),
			Breaker: b.breaker.State().String(),
			Active:  b.active.Load(), Sessions: b.sessions.Load(),
			LatencyEWMAMs: float64(ewma) / float64(time.Millisecond),
			Ejected:       g.ejector.Ejected(b.Addr),
		}
		b.mu.Lock()
		st.Status = b.status
		shapes := make([]string, 0, len(b.shapes))
		for s := range b.shapes {
			shapes = append(shapes, s)
		}
		b.mu.Unlock()
		sort.Strings(shapes)
		st.Shapes = shapes
		out = append(out, st)
	}
	return out
}

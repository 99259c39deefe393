// Package backend is the one implementation of "a maxd": the Fig. 1
// cloud server with multiple client channels. It owns the TCP listener
// and accept loop, -max-sessions admission (semaphore, bounded queue
// wait, BUSY shed), the per-connection panic backstop and byte
// accounting, the multiplexed NewSessionContext/ServeContext request
// loop, the optional precompute engine, the HTTP observability surface
// (/metrics, /histz, /debug/sessions, /healthz, /shapez and optional
// /debug/pprof/) and the shutdown sequence drain → cancel → grace →
// engine stop.
//
// cmd/maxd wraps it with flags, model loading, log lines and signals;
// cmd/maxchaos crashes and restarts it and injects faults through
// Config.WrapConn; cmd/maxcap -validate measures it. All three run this
// code, so the capacity model and the chaos invariants hold for the
// real daemon.
package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// Config is every serving knob of one backend. cmd/maxd binds its
// serving flags straight onto these fields.
type Config struct {
	// Listen is the protocol TCP address; port 0 picks one (see Addr).
	Listen string
	// MetricsAddr is the HTTP observability address; empty disables the
	// surface.
	MetricsAddr string
	// Matrix is the model: rectangular rows of Width-bit signed
	// fixed-point words, the garbler's private input to every request.
	Matrix [][]int64
	// Width is the operand bit-width (power of two); the accumulator is
	// 2·Width bits, operands are signed.
	Width int
	// GarbleWorkers caps the lanes each request's rows are garbled on
	// (0 or 1 = one lane).
	GarbleWorkers int
	// MaxSessions bounds the sessions in flight; 0 = unlimited.
	MaxSessions int
	// AdmissionWait bounds how long a connection may queue behind
	// MaxSessions before it is shed with a BUSY frame carrying this
	// duration as the retry hint; <= 0 queues without bound.
	AdmissionWait time.Duration
	// Timeouts are the per-phase wire-operation deadlines; a zero field
	// disables that deadline.
	Timeouts protocol.Timeouts
	// DrainTimeout bounds Drain's wait for in-flight sessions.
	DrainTimeout time.Duration
	// Precompute runs the offline/online split: a background worker
	// pre-garbles the model's shape (admitted at boot, the one shape the
	// engine holds). PrecomputePool is its refill target.
	Precompute     bool
	PrecomputePool int
	// Pprof mounts net/http/pprof under /debug/pprof/ on MetricsAddr.
	Pprof bool

	// Obs is the observability root the backend records into and serves
	// on MetricsAddr; nil makes a private one (see Registry). A caller
	// passes its own to register further metrics on the same surface.
	Obs *obs.Obs
	// WrapConn, when set, wraps every accepted connection before
	// anything is read or written on it — the fault-injection seam.
	WrapConn func(wire.Conn) wire.Conn
	// OnRequest is called on the session goroutine after each served
	// request.
	OnRequest func(Session, *protocol.Response)
	// OnSessionEnd is called once per admitted connection when its
	// session is over: err is nil after the client's end marker (or a
	// disconnect between requests), the setup or request error
	// otherwise.
	OnSessionEnd func(Session, error)
	// Logf receives the backend's own log lines (admission rejections,
	// recovered panics, drain escalation); nil discards them.
	Logf func(string, ...any)
}

// Session describes one admitted connection to the callbacks.
type Session struct {
	// ID is the session's trace id, as /debug/sessions lists it.
	ID string
	// Peer is the remote address.
	Peer string
	// Established is false when the handshake or OT setup failed.
	Established bool
	// Requests counts the requests served so far.
	Requests int
	// BytesIn and BytesOut are the framed bytes moved so far.
	BytesIn, BytesOut uint64
}

// killGrace is how long Close waits for cancelled sessions to unwind
// before giving up on them.
const killGrace = 5 * time.Second

// busyFrameTimeout bounds the best-effort BUSY frame: a peer too broken
// to read two dozen bytes just gets the close.
const busyFrameTimeout = 2 * time.Second

// Backend is one live backend. Start it, then either Drain and Close it
// (graceful) or just Close it (crash).
type Backend struct {
	cfg   Config // Obs and Logf never nil
	srv   *protocol.Server
	eng   *precompute.Engine // nil without Config.Precompute
	ln    net.Listener
	hsrv  *http.Server // nil without Config.MetricsAddr
	maddr string

	sem      chan struct{} // nil without Config.MaxSessions
	waiting  *obs.Gauge
	rejects  *obs.Counter
	conns    *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	// lastReject is the unix-nano time of the latest BUSY rejection.
	lastReject atomic.Int64

	// serveCtx spans every session; cancelling it interrupts them
	// wherever they are, including wire operations blocked on a silent
	// peer. stopping is closed when intake ends, releasing queued
	// connections with a "shutting down" rejection.
	serveCtx context.Context
	cancel   context.CancelFunc
	stopping chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	live map[wire.Conn]struct{} // connections Close cuts
	wg   sync.WaitGroup         // connection handlers

	accepted  chan struct{} // closed when the accept loop has exited
	acceptErr error         // why it exited, if not by Drain/Close
}

// Start validates cfg, binds the listeners and begins serving.
func Start(cfg Config) (*Backend, error) {
	if len(cfg.Matrix) == 0 || len(cfg.Matrix[0]) == 0 {
		return nil, errors.New("backend: empty model matrix")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	simCfg := maxsim.Config{Width: cfg.Width, AccWidth: 2 * cfg.Width, Signed: true}
	srv, err := protocol.NewServer(simCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(0)
	}
	b := &Backend{
		cfg: cfg, srv: srv,
		stopping: make(chan struct{}),
		live:     map[wire.Conn]struct{}{},
		accepted: make(chan struct{}),
	}
	srv.WithObs(cfg.Obs).WithTimeouts(cfg.Timeouts)
	b.serveCtx, b.cancel = context.WithCancel(context.Background())

	// Register the daemon-level metrics before the endpoint goes live so
	// the very first scrape already lists them (at zero).
	reg := b.cfg.Obs.Metrics()
	b.bytesIn = reg.Counter("wire_bytes_in_total", "framed bytes received from clients")
	b.bytesOut = reg.Counter("wire_bytes_out_total", "framed bytes sent to clients")
	b.conns = reg.Counter("connections_total", "TCP connections accepted")
	b.waiting = reg.Gauge("sessions_waiting", "connections queued behind the -max-sessions limit")
	b.rejects = reg.Counter("busy_rejects_total", "connections shed with a BUSY frame after the -admission-wait queue deadline")
	if cfg.MaxSessions > 0 {
		b.sem = make(chan struct{}, cfg.MaxSessions)
	}
	b.cfg.Obs.SetHealth(b.health)

	// eng stays nil when disabled — the protocol layer treats a nil
	// engine as always-miss. The one shape serve issues is admitted up
	// front. The engine runs nothing until Start, so the listen errors
	// below need not stop it.
	if cfg.Precompute {
		b.eng, err = precompute.New(precompute.Config{
			Sim: simCfg, PoolSize: cfg.PrecomputePool, Metrics: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("precompute engine: %w", err)
		}
		srv.WithPrecompute(b.eng)
		b.eng.Admit(b.modelShape())
	}

	if b.ln, err = net.Listen("tcp", cfg.Listen); err != nil {
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			b.ln.Close()
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		// Runtime observability rides along with the metrics surface:
		// every scrape samples goroutines, heap occupancy and GC
		// pause/cycle deltas, so a perf regression seen from outside
		// is explainable from /metrics alone.
		b.cfg.Obs.EnableRuntimeMetrics()
		b.maddr = mln.Addr().String()
		b.hsrv = &http.Server{Handler: b.handler()}
		go b.hsrv.Serve(mln)
	}

	b.eng.Start()
	go b.acceptLoop()
	return b, nil
}

// Addr is the bound protocol address.
func (b *Backend) Addr() string { return b.ln.Addr().String() }

// MetricsAddr is the bound observability address ("" when disabled).
func (b *Backend) MetricsAddr() string { return b.maddr }

// Registry is the live metrics registry behind /metrics and /histz.
func (b *Backend) Registry() *obs.Registry { return b.cfg.Obs.Metrics() }

// ArenaOutstanding reports frame buffers the serving path still holds;
// zero once every session has ended.
func (b *Backend) ArenaOutstanding() int64 { return b.srv.ArenaOutstanding() }

// Prefill synchronously fills the model shape's pool to depth n, so a
// measurement starts against a warm backend instead of racing the
// background refill. A no-op without Config.Precompute.
func (b *Backend) Prefill(n int) error {
	if b.eng == nil {
		return nil
	}
	return b.eng.Prefill(b.modelShape(), n)
}

// Done is closed when the accept loop has exited — by Drain or Close,
// or on its own after an accept error (which Close then returns).
func (b *Backend) Done() <-chan struct{} { return b.accepted }

// modelShape is the pool key of the one request serve issues: the
// model matrix over per-round OT (protocol.Request's default).
func (b *Backend) modelShape() precompute.Shape {
	return precompute.Shape{
		Rows: len(b.cfg.Matrix), Cols: len(b.cfg.Matrix[0]),
		Width: b.cfg.Width, Signed: true, Mode: "matvec", OT: protocol.OTPerRound.String(),
	}
}

// health is the /healthz load signal: overloaded while a BUSY rejection
// is recent (a load balancer should route away), degraded while
// connections are merely queueing, ok otherwise. The overload window
// matches the admission wait so the state outlives the instant of
// rejection.
func (b *Backend) health() string {
	window := b.cfg.AdmissionWait
	if window < time.Second {
		window = time.Second
	}
	if t := b.lastReject.Load(); t != 0 && time.Since(time.Unix(0, t)) < window {
		return obs.HealthOverloaded
	}
	if b.waiting.Value() > 0 {
		return obs.HealthDegraded
	}
	return obs.HealthOK
}

// handler assembles the HTTP surface: the obs handler, /shapez (the
// model shape this backend serves, polled by the gateway) and, behind
// Pprof, the pprof endpoints. The pprof routes are
// mounted explicitly rather than via net/http/pprof's DefaultServeMux
// side effect, so leaving Pprof off really removes the surface.
func (b *Backend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", b.cfg.Obs.Handler())
	if b.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	mux.HandleFunc("/shapez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// One model per backend: the shape serve issues, pooled or not.
		json.NewEncoder(w).Encode(map[string]any{"shapes": []string{b.modelShape().String()}})
	})
	return mux
}

// acceptLoop is Fig. 1's "multiple channels to communicate with the
// clients": one goroutine per client; every session garbles under its
// own fresh labels.
func (b *Backend) acceptLoop() {
	defer close(b.accepted)
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			select {
			case <-b.stopping:
			default:
				b.acceptErr = err
			}
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handle(nc)
		}()
	}
}

// acquire takes a session slot. A counting semaphore bounds the
// sessions in flight; connections beyond the limit queue (visible on
// the sessions_waiting gauge) up to AdmissionWait and are then shed, so
// overload degrades into bounded latency and honest rejections, not
// silent unbounded queueing. busy means "rejected for load" (the peer
// deserves a BUSY frame); neither admitted nor busy means "shutting
// down".
func (b *Backend) acquire() (admitted, busy bool) {
	if b.sem == nil {
		return true, false
	}
	select {
	case b.sem <- struct{}{}:
		return true, false
	default:
	}
	b.waiting.Add(1)
	defer b.waiting.Add(-1)
	var deadline <-chan time.Time
	if b.cfg.AdmissionWait > 0 {
		t := time.NewTimer(b.cfg.AdmissionWait)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case b.sem <- struct{}{}:
		return true, false
	case <-deadline:
		return false, true
	case <-b.stopping:
		return false, false
	}
}

// track registers conn so Close can cut it; false when the backend is
// already closed.
func (b *Backend) track(conn wire.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.serveCtx.Err() != nil {
		return false
	}
	b.live[conn] = struct{}{}
	return true
}

func (b *Backend) untrack(conn wire.Conn) {
	b.mu.Lock()
	delete(b.live, conn)
	b.mu.Unlock()
}

// handle serves one connection: admission, then the multiplexed request
// loop — the client issues any number of matvec requests over the one
// OT setup, each garbled under fresh labels.
func (b *Backend) handle(nc net.Conn) {
	peer := nc.RemoteAddr().String()
	// A panic anywhere in this connection's serving must cost only this
	// connection: the session layer already recovers inside request
	// handling, so this is the outermost backstop keeping the accept
	// loop's process up.
	defer func() {
		if r := recover(); r != nil {
			b.cfg.Obs.Metrics().Counter("panics_recovered_total", "panics recovered and converted to per-request errors").Inc()
			b.cfg.Logf("peer=%s recovered panic in connection handler: %v\n%s", peer, r, debug.Stack())
		}
	}()
	b.conns.Inc()
	conn := wire.NewStreamConn(nc)
	if b.cfg.WrapConn != nil {
		conn = b.cfg.WrapConn(conn)
	}
	// Per-connection byte accounting; the callbacks run on this
	// goroutine only.
	s := Session{Peer: peer}
	conn = wire.Observed(conn,
		func(n int) { b.bytesOut.Add(uint64(n)); s.BytesOut += uint64(n) },
		func(n int) { b.bytesIn.Add(uint64(n)); s.BytesIn += uint64(n) })
	defer conn.Close()
	if !b.track(conn) {
		return
	}
	defer b.untrack(conn)

	admitted, busy := b.acquire()
	if busy {
		b.rejects.Inc()
		b.lastReject.Store(time.Now().UnixNano())
		nc.SetDeadline(time.Now().Add(busyFrameTimeout))
		if err := protocol.SendBusy(conn, b.cfg.AdmissionWait); err != nil {
			b.cfg.Logf("peer=%s busy frame not delivered: %v", peer, err)
		}
		b.cfg.Logf("peer=%s rejected: busy (max-sessions=%d full past admission-wait=%s)",
			peer, b.cfg.MaxSessions, b.cfg.AdmissionWait)
		return
	}
	if !admitted {
		b.cfg.Logf("peer=%s rejected: shutting down", peer)
		return
	}
	if b.sem != nil {
		defer func() { <-b.sem }()
	}

	tr := b.cfg.Obs.Traces().StartSession("mux", peer)
	s.ID = tr.ID()
	err := b.serve(conn, tr, &s)
	if b.cfg.OnSessionEnd != nil {
		b.cfg.OnSessionEnd(s, err)
	}
}

// serve runs the session on an admitted connection, keeping s current
// for the callbacks. A nil return is a clean end.
func (b *Backend) serve(conn wire.Conn, tr *obs.SessionTrace, s *Session) error {
	sess, err := b.srv.NewSessionContext(b.serveCtx, conn, protocol.SessionConfig{
		GarbleWorkers: b.cfg.GarbleWorkers, Trace: tr,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	s.Established = true
	for {
		resp, err := sess.ServeContext(b.serveCtx, protocol.Request{Matrix: b.cfg.Matrix})
		if errors.Is(err, protocol.ErrSessionEnded) {
			break
		}
		if err != nil {
			return err
		}
		s.Requests = sess.Requests()
		if b.cfg.OnRequest != nil {
			b.cfg.OnRequest(*s, resp)
		}
	}
	tr.SetAttr("requests", fmt.Sprint(s.Requests))
	tr.SetAttr("bytes_in", fmt.Sprint(s.BytesIn))
	tr.SetAttr("bytes_out", fmt.Sprint(s.BytesOut))
	return nil
}

// stopIntake closes the protocol listener and releases queued
// connections; idempotent.
func (b *Backend) stopIntake() {
	b.stopOnce.Do(func() {
		close(b.stopping)
		b.ln.Close()
	})
	<-b.accepted
}

// handlersDone reports whether every connection handler returned within
// d.
func (b *Backend) handlersDone(d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// Drain is the polite half of shutdown: stop accepting, then give
// in-flight sessions DrainTimeout to finish. It reports whether they
// all did. On false the caller is about to escalate with Close, so the
// precompute engine is stopped already (remaining requests fall back to
// inline garbling) and the load-shedding total is logged — escalation
// is the moment metrics are most likely to be lost.
func (b *Backend) Drain() bool {
	b.stopIntake()
	if b.handlersDone(b.cfg.DrainTimeout) {
		return true
	}
	b.cfg.Logf("drain deadline %s expired, cancelling in-flight sessions shutdown_busy_rejects=%d",
		b.cfg.DrainTimeout, b.rejects.Value())
	b.eng.Stop()
	return false
}

// Close ends the backend now, the way a process crash ends it for its
// peers: intake stops, the serve context is cancelled, every live
// connection is cut and the HTTP surface closes. Handlers then get
// killGrace to unwind before the precompute engine stops — draining
// every pool, so a final metrics snapshot reports zero pooled capacity.
// After a successful Drain there is nothing left to cut and Close just
// releases resources. It returns the error that ended the accept loop,
// if anything other than Drain or Close did. Idempotent.
func (b *Backend) Close() error {
	b.stopIntake()
	b.cancel()
	b.mu.Lock()
	live := make([]wire.Conn, 0, len(b.live))
	for c := range b.live {
		live = append(live, c)
	}
	b.mu.Unlock()
	for _, c := range live {
		c.Close()
	}
	if b.hsrv != nil {
		b.hsrv.Close()
	}
	if !b.handlersDone(killGrace) {
		b.cfg.Logf("sessions still in flight after cancellation, exiting anyway")
	}
	b.eng.Stop()
	return b.acceptErr
}

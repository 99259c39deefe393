package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/gateway"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

// Fault modes a chaos backend can be switched into between kills. New
// sessions accepted while a mode is active get their connection wrapped
// in the matching faultconn script; sessions already in flight are left
// alone (a real degradation hits new work first).
const (
	faultNone  int32 = iota
	faultStall       // accepted-but-mute: first read blocks forever
	faultFlaky       // lossy link: every op fails with probability flakyP
)

// chaosMatrix is the 1×2 model every backend serves.
var chaosMatrix = [][]int64{{2, 3}}

// chaosBackend is one real backend (internal/backend, the code maxd
// runs) the harness can kill, restart and degrade. Kill is a process
// crash, not a graceful drain: Close cuts both listeners and every live
// session connection. Restart starts a fresh backend — new engine, cold
// pools, new registry — on the recorded addresses, so the gateway's
// static backend list stays valid. Faults go in through the backend's
// WrapConn seam.
type chaosBackend struct {
	id     int
	flakyP float64
	// cfg restarts the backend; Listen and MetricsAddr are pinned to the
	// first incarnation's ports.
	cfg backend.Config

	fault    atomic.Int32
	flakySeq atomic.Int64 // per-conn seed so flaky runs differ but stay reproducible
	served   atomic.Int64 // sessions ended cleanly after a served request, all incarnations
	arena    atomic.Int64 // frame buffers killed incarnations never returned

	mu   sync.Mutex
	live *backend.Backend // nil while down
}

func startChaosBackend(cfg *chaosConfig, id int) (*chaosBackend, error) {
	cb := &chaosBackend{id: id, flakyP: cfg.flakyP}
	cb.cfg = backend.Config{
		Listen: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", Advertise: true,
		Matrix: chaosMatrix, Width: 8,
		// I/O budgets bound every session goroutine. A healthy session
		// is tens of milliseconds end to end; the budgets are seconds
		// because they exist to reclaim sessions wedged on a muted or
		// killed peer, and must not fire on a runner that is merely
		// starved of CPU.
		Timeouts:   protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second},
		Precompute: true, PrecomputePool: 2,
		WrapConn: cb.wrap,
		// A completion is a served request followed by the client's clean
		// end of session; a session a kill cuts short ends with an error
		// and does not count.
		OnSessionEnd: func(s backend.Session, err error) {
			if err == nil && s.Requests > 0 {
				cb.served.Add(1)
			}
		},
	}
	b, err := backend.Start(cb.cfg)
	if err != nil {
		return nil, err
	}
	cb.cfg.Listen, cb.cfg.MetricsAddr = b.Addr(), b.MetricsAddr()
	cb.live = b
	return cb, nil
}

// wrap applies the active fault mode to a newly accepted connection.
func (cb *chaosBackend) wrap(conn wire.Conn) wire.Conn {
	switch cb.fault.Load() {
	case faultStall:
		return faultconn.New(conn, faultconn.Options{StallFirstRead: true})
	case faultFlaky:
		return faultconn.New(conn, faultconn.Flaky(cb.flakySeq.Add(1), cb.flakyP))
	}
	return conn
}

// kill crashes the live incarnation and books what it leaked. It
// returns once the incarnation's session goroutines have unwound, so
// served and arena are final for it. Idempotent.
func (cb *chaosBackend) kill() {
	cb.mu.Lock()
	b := cb.live
	cb.live = nil
	cb.mu.Unlock()
	if b == nil {
		return
	}
	b.Close()
	cb.arena.Add(b.ArenaOutstanding())
}

// restart brings the backend back on its original addresses. The
// kernel can hold a freed port briefly, so binding retries for up to
// two seconds before giving up.
func (cb *chaosBackend) restart() error {
	var err error
	for i := 0; i < 40; i++ {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		var b *backend.Backend
		if b, err = backend.Start(cb.cfg); err == nil {
			cb.mu.Lock()
			cb.live = b
			cb.mu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("backend %d: re-bind after restart: %w", cb.id, err)
}

// chaosFleet is the system under test: one live gateway routing over
// real TCP to the chaos backends.
type chaosFleet struct {
	cfg      *chaosConfig
	o        *obs.Obs
	gw       *gateway.Gateway
	ln       net.Listener
	gwAddr   string
	gwDone   chan error
	backends []*chaosBackend
	logf     func(string, ...any)
}

func startFleet(cfg *chaosConfig, logf func(string, ...any)) (*chaosFleet, error) {
	f := &chaosFleet{cfg: cfg, o: obs.New(0), logf: logf}
	var gwBackends []gateway.Backend
	for i := 0; i < cfg.backends; i++ {
		b, err := startChaosBackend(cfg, i)
		if err != nil {
			f.teardownBackends()
			return nil, err
		}
		f.backends = append(f.backends, b)
		gwBackends = append(gwBackends, gateway.Backend{Addr: b.cfg.Listen, HealthURL: "http://" + b.cfg.MetricsAddr})
	}
	gw, err := gateway.New(gateway.Config{
		Backends:        gwBackends,
		PeekTimeout:     100 * time.Millisecond,
		ProbeInterval:   cfg.probeInterval,
		EjectAfter:      cfg.ejectAfter,
		BreakerCooldown: cfg.breakerCooldown,
		RetryBudget:     cfg.retryBudget,
		RetryBudgetMin:  cfg.retryBudgetMin,
		MaxFailovers:    2,
		Obs:             f.o,
		Logf:            logf,
	})
	if err != nil {
		f.teardownBackends()
		return nil, err
	}
	f.gw = gw
	gw.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		f.teardownBackends()
		return nil, err
	}
	f.ln, f.gwAddr = ln, ln.Addr().String()
	f.gwDone = make(chan error, 1)
	go func() { f.gwDone <- gw.Serve(ln) }()
	return f, nil
}

func (f *chaosFleet) teardownBackends() {
	for _, b := range f.backends {
		b.kill()
	}
}

// stopIntake closes the gateway's listener so no new session can
// arrive; call before Drain.
func (f *chaosFleet) stopIntake() {
	f.ln.Close()
	<-f.gwDone
}

// close tears the whole fleet down: prober, then every backend.
func (f *chaosFleet) close() {
	f.gw.Close()
	f.teardownBackends()
}

// chaosCounters tallies what the chaos loop actually did.
type chaosCounters struct {
	kills, restarts, restartFails atomic.Int64
	stalls, flakyWindows          atomic.Int64
}

// chaosLoop is the fault injector: every killEvery it crashes the next
// backend round-robin (restarting it downFor later) and, on alternating
// cycles, opens a mute-peer stall window or a lossy-link flaky window
// on the following replica. One backend is down and at most one
// degraded at any time by construction, so the fleet always has live
// capacity and the invariants stay assertable.
func (f *chaosFleet) chaosLoop(done <-chan struct{}, c *chaosCounters) {
	t := time.NewTicker(f.cfg.killEvery)
	defer t.Stop()
	var wg sync.WaitGroup
	n := len(f.backends)
	for cycle := 0; ; cycle++ {
		select {
		case <-done:
			wg.Wait()
			return
		case <-t.C:
			v := f.backends[cycle%n]
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.kill()
				c.kills.Add(1)
				f.logf("chaos: killed backend %d (%s)", v.id, v.cfg.Listen)
				select {
				case <-time.After(f.cfg.downFor):
				case <-done:
				}
				if err := v.restart(); err != nil {
					c.restartFails.Add(1)
					f.logf("chaos: %v", err)
					return
				}
				c.restarts.Add(1)
				f.logf("chaos: restarted backend %d (%s)", v.id, v.cfg.Listen)
			}()
			if n < 2 {
				continue
			}
			degraded := f.backends[(cycle+1)%n]
			switch {
			case cycle%2 == 0 && f.cfg.stallFor > 0:
				wg.Add(1)
				go func() {
					defer wg.Done()
					degraded.fault.Store(faultStall)
					c.stalls.Add(1)
					f.logf("chaos: stalling new sessions on backend %d for %s", degraded.id, f.cfg.stallFor)
					select {
					case <-time.After(f.cfg.stallFor):
					case <-done:
					}
					degraded.fault.Store(faultNone)
				}()
			case cycle%2 == 1 && f.cfg.flakyP > 0:
				wg.Add(1)
				go func() {
					defer wg.Done()
					degraded.fault.Store(faultFlaky)
					c.flakyWindows.Add(1)
					f.logf("chaos: flaky link p=%.2f on backend %d for %s", f.cfg.flakyP, degraded.id, f.cfg.flakyFor)
					select {
					case <-time.After(f.cfg.flakyFor):
					case <-done:
					}
					degraded.fault.Store(faultNone)
				}()
			}
		}
	}
}

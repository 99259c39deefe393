package main

import (
	"crypto/rand"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/gateway"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

func TestParseBackends(t *testing.T) {
	got, err := parseBackends("10.0.0.1:7700, 10.0.0.2:7700=http://10.0.0.2:7701,10.0.0.3:7700=10.0.0.3:7701/")
	if err != nil {
		t.Fatal(err)
	}
	want := []gateway.Backend{
		{Addr: "10.0.0.1:7700"},
		{Addr: "10.0.0.2:7700", HealthURL: "http://10.0.0.2:7701"},
		{Addr: "10.0.0.3:7700", HealthURL: "http://10.0.0.3:7701"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d backends", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backend %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseBackends(""); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := parseBackends("=http://x"); err == nil {
		t.Fatal("empty address accepted")
	}
}

// testBackend is one real backend (internal/backend, the code maxd
// runs) serving a 1×2 model at b=8, with the count of sessions it
// completed.
type testBackend struct {
	*backend.Backend
	served atomic.Int64 // sessions ended cleanly after a served request
}

func startBackend(t *testing.T, mutate func(*backend.Config)) *testBackend {
	t.Helper()
	b := &testBackend{}
	cfg := backend.Config{
		Listen: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0",
		Matrix: [][]int64{{2, 3}}, Width: 8,
		OnSessionEnd: func(s backend.Session, err error) {
			if err == nil && s.Requests > 0 {
				b.served.Add(1)
			}
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	live, err := backend.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Backend = live
	t.Cleanup(func() { live.Close() })
	return b
}

// wantServed waits for the backend's completed-session count to reach
// want (the count moves when the backend has seen the client's end
// marker, a moment after the client returns).
func (b *testBackend) wantServed(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.served.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("backend %s completed %d sessions, want %d", b.Addr(), b.served.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// testGatewayConfig is a valid maxgw configuration over the given
// -backends spec, with test-sized timings.
func testGatewayConfig(spec string) gwConfig {
	return gwConfig{
		listen: "127.0.0.1:0", backends: spec,
		peekTimeout: 100 * time.Millisecond, probeInterval: 150 * time.Millisecond,
		ejectAfter: 2, maxFailovers: 2,
	}
}

// startGateway boots maxgw's run() against the given backends (in the
// given order) and returns its listen and metrics addresses. SIGTERM
// stops it.
func startGateway(t *testing.T, probeInterval time.Duration, backends ...*testBackend) (addr, maddr string, done chan error) {
	t.Helper()
	var spec []string
	for _, b := range backends {
		spec = append(spec, b.Addr()+"="+b.MetricsAddr())
	}
	gc := testGatewayConfig(strings.Join(spec, ","))
	gc.listen, gc.metricsAddr, gc.probeInterval = freePort(t), freePort(t), probeInterval
	done = make(chan error, 1)
	go func() { done <- run(gc) }()
	return gc.listen, gc.metricsAddr, done
}

// fleetz polls the gateway's /fleetz until ok accepts the named
// backend's row, failing the test after five seconds.
func fleetz(t *testing.T, maddr, backendAddr, what string, ok func(gateway.BackendStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var fleet struct {
			Backends []gateway.BackendStatus `json:"backends"`
		}
		resp, err := http.Get("http://" + maddr + "/fleetz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&fleet)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range fleet.Backends {
				if st.Addr == backendAddr && ok(st) {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/fleetz never showed %s %s (last: %+v, err %v)", backendAddr, what, fleet.Backends, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// advertises is the fleetz condition "lists the e2e shape".
func advertises(st gateway.BackendStatus) bool {
	return len(st.Shapes) == 1 && st.Shapes[0] == e2eHint.Key()
}

// pooled makes a backend pre-garble its model's shape, the way maxd
// -precompute does.
func pooled(cfg *backend.Config) {
	cfg.Precompute, cfg.PrecomputePool = true, 2
}

// otherShape makes a backend serve the same model at b=16: every
// backend advertises its one shape, so a non-advertiser of e2eHint is a
// backend whose model has another shape. The client follows the
// server's width, so its sessions still compute [23].
func otherShape(cfg *backend.Config) {
	cfg.Width = 16
}

func dialWire(t *testing.T, addr string) wire.Conn {
	t.Helper()
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return wire.NewStreamConn(c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("gateway did not come up")
	return nil
}

var e2eHint = protocol.ShapeHint{Rows: 1, Cols: 2, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}

// runSession runs one hinted (or unhinted) request through the
// gateway over real TCP and checks the result.
func runSession(t *testing.T, gwAddr string, hint *protocol.ShapeHint) error {
	t.Helper()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if hint != nil {
		cli.WithShapeHint(*hint)
	}
	conn := dialWire(t, gwAddr)
	defer conn.Close()
	cs, err := cli.Dial(conn)
	if err != nil {
		return err
	}
	out, err := cs.Do([]int64{4, 5})
	if err != nil {
		return err
	}
	if err := cs.Close(); err != nil {
		return err
	}
	if len(out) != 1 || out[0] != 2*4+3*5 {
		t.Fatalf("result = %v, want [23]", out)
	}
	return nil
}

// stopGateway SIGTERMs the process (run's NotifyContext catches it)
// and waits for a clean exit.
func stopGateway(t *testing.T, done chan error) {
	t.Helper()
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gateway exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not shut down on SIGTERM")
	}
}

// TestE2ESameShapePinsAndHitsPool is the headline acceptance path:
// maxgw in front of two live backends, one of which (listed second)
// serves and pre-garbles the hinted shape while the other serves another
// shape. A session hinting that shape sticks to the advertiser and is a
// pool hit on its first request; an unhinted one goes by load, to the
// backend that has served nothing yet.
func TestE2ESameShapePinsAndHitsPool(t *testing.T) {
	plain, warm := startBackend(t, otherShape), startBackend(t, pooled)
	if err := warm.Prefill(2); err != nil {
		t.Fatal(err)
	}
	const probeInterval = 150 * time.Millisecond
	began := time.Now()
	gwAddr, maddr, done := startGateway(t, probeInterval, plain, warm)
	defer stopGateway(t, done)

	// The gateway's first probe pass runs at start, so the shape is on
	// /fleetz well within the poll's deadline; the elapsed time is logged
	// because it includes the gateway's own boot.
	fleetz(t, maddr, warm.Addr(), "advertising "+e2eHint.Key(), advertises)
	t.Logf("advertised shape on /fleetz %s after gateway start (probe interval %s)", time.Since(began), probeInterval)

	if err := runSession(t, gwAddr, &e2eHint); err != nil {
		t.Fatalf("hinted session: %v", err)
	}
	warm.wantServed(t, 1)
	key := obs.L("shape", e2eHint.Key())
	if hits := warm.Registry().Counter("precompute_hits_total", "", key).Value(); hits != 1 {
		t.Fatalf("advertiser's pool hits = %d, want 1 (the first hinted request must serve pre-garbled)", hits)
	}
	if got := plain.served.Load(); got != 0 {
		t.Fatalf("non-advertiser served %d hinted sessions, want 0", got)
	}

	if err := runSession(t, gwAddr, nil); err != nil {
		t.Fatalf("unhinted session: %v", err)
	}
	plain.wantServed(t, 1)
	warm.wantServed(t, 1)
}

// TestE2EFailoverOnBusyAndKilledBackend: the backend a hinted session
// goes to first — the only advertiser — first sheds with BUSY (its one
// session slot is held, the way an overloaded maxd sheds), then is
// killed outright; both times the gateway transparently lands the
// session on the other backend and the client never sees either fault.
// Probing is effectively off after the first pass, so the breaker is fed
// by handshakes only and the advertiser stays first in line throughout.
func TestE2EFailoverOnBusyAndKilledBackend(t *testing.T) {
	owner := startBackend(t, func(cfg *backend.Config) {
		pooled(cfg)
		cfg.MaxSessions, cfg.AdmissionWait = 1, 50*time.Millisecond
	})
	other := startBackend(t, otherShape)
	gwAddr, maddr, done := startGateway(t, time.Hour, owner, other)
	defer stopGateway(t, done)
	fleetz(t, maddr, owner.Addr(), "advertising "+e2eHint.Key(), advertises)

	if err := runSession(t, gwAddr, &e2eHint); err != nil {
		t.Fatalf("session 1: %v", err)
	}
	owner.wantServed(t, 1)

	// BUSY failover: a direct connection that never answers the hello
	// holds the owner's only slot, so the gateway's dial queues for
	// AdmissionWait and is shed; the other backend serves.
	parked := dialWire(t, owner.Addr())
	if _, err := parked.RecvMsg(); err != nil { // the hello: the slot is ours
		t.Fatal(err)
	}
	if err := runSession(t, gwAddr, &e2eHint); err != nil {
		t.Fatalf("session during BUSY: %v", err)
	}
	other.wantServed(t, 1)
	if got := owner.Registry().Counter("busy_rejects_total", "").Value(); got != 1 {
		t.Fatalf("owner shed %d connections, want 1", got)
	}
	parked.Close()

	// Kill failover: the owner is gone (dial refused); the other backend
	// still serves, within the same client dial.
	owner.Close()
	if err := runSession(t, gwAddr, &e2eHint); err != nil {
		t.Fatalf("session after kill: %v", err)
	}
	other.wantServed(t, 2)
	owner.wantServed(t, 1)
}

// TestE2EBreakerOpensOnDeadBackend: a backend that dies entirely
// (protocol listener and health surface both gone) opens its breaker
// within ejectAfter probe ticks, and the breaker's position surfaces
// on both /fleetz (healthy: false) and /metrics (gw_backend_up 0, one
// eject on gw_membership_changes_total) — while the surviving backend
// keeps serving.
func TestE2EBreakerOpensOnDeadBackend(t *testing.T) {
	b0, b1 := startBackend(t, nil), startBackend(t, nil)
	gwAddr, maddr, done := startGateway(t, 150*time.Millisecond, b0, b1)
	defer stopGateway(t, done)

	dead := b0.Addr()
	b0.Close()
	fleetz(t, maddr, dead, "with an open breaker", func(st gateway.BackendStatus) bool {
		return !st.Healthy
	})

	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gw_backend_up{backend="` + dead + `"} 0`,
		`gw_membership_changes_total{backend="` + dead + `",change="eject"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	if err := runSession(t, gwAddr, &e2eHint); err != nil {
		t.Fatalf("session with a dead backend: %v", err)
	}
	b1.wantServed(t, 1)
}

// TestE2EUnhintedClientServed pins gateway back-compat on the wire: a
// client that never sends the preface still completes through maxgw.
func TestE2EUnhintedClientServed(t *testing.T) {
	b0, b1 := startBackend(t, nil), startBackend(t, nil)
	gwAddr, _, done := startGateway(t, 150*time.Millisecond, b0, b1)
	defer stopGateway(t, done)

	if err := runSession(t, gwAddr, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b0.served.Load()+b1.served.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet completed %d sessions, want 1", b0.served.Load()+b1.served.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunRejectsNonPositiveFlags: gateway.Config reads a zero as "use
// the default", so maxgw refuses a non-positive value for the flags
// whose zero would otherwise silently become 2 / 3 / 2s / 75ms —
// naming the flag and the value, before anything listens.
func TestRunRejectsNonPositiveFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		zero func(*gwConfig)
		want string
	}{
		{"max-failovers", func(gc *gwConfig) { gc.maxFailovers = 0 }, "-max-failovers must be positive, have 0"},
		{"eject-after", func(gc *gwConfig) { gc.ejectAfter = -1 }, "-eject-after must be positive, have -1"},
		{"probe-interval", func(gc *gwConfig) { gc.probeInterval = 0 }, "-probe-interval must be positive, have 0s"},
		{"peek-timeout", func(gc *gwConfig) { gc.peekTimeout = 0 }, "-peek-timeout must be positive, have 0s"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			gc := testGatewayConfig("127.0.0.1:1")
			tc.zero(&gc)
			if err := run(gc); err == nil || err.Error() != tc.want {
				t.Fatalf("run = %v, want %q", err, tc.want)
			}
		})
	}
}

package backend

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// testModel is the 2×2 model every test backend serves at b=8.
var testModel = [][]int64{{2, 3}, {-1, 4}}

// logSink collects the backend's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

func (l *logSink) contains(sub string) bool { return strings.Contains(l.String(), sub) }

// testConfig is a loopback backend with generous wire budgets; tests
// edit the fields they are about.
func testConfig(sink *logSink) Config {
	return Config{
		Listen: "127.0.0.1:0", Matrix: testModel, Width: 8,
		Timeouts:     protocol.Timeouts{Handshake: 20 * time.Second, IO: 20 * time.Second},
		DrainTimeout: 5 * time.Second,
		Logf:         sink.logf,
	}
}

func start(t *testing.T, cfg Config) *Backend {
	t.Helper()
	b, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func dial(t *testing.T, addr string) wire.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewStreamConn(nc)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// firstFrame classifies what the backend says first on a raw
// connection. The server speaks first, and its hello goes out the
// moment a session starts, so "hello" means the connection was admitted
// — without paying for an OT setup.
type firstFrame struct {
	busy *protocol.BusyError // non-nil: shed with a BUSY frame
	err  error               // non-nil: closed without a frame
}

func (f firstFrame) admitted() bool { return f.busy == nil && f.err == nil }

func readFirst(conn wire.Conn) firstFrame {
	frame, err := conn.RecvMsg()
	if err != nil {
		return firstFrame{err: err}
	}
	if be, ok := protocol.PeekBusy(frame); ok {
		return firstFrame{busy: be}
	}
	return firstFrame{}
}

// holdSlot opens a connection that takes a session slot and then says
// nothing: the returned conn owns the slot until closed (or until the
// handshake budget expires).
func holdSlot(t *testing.T, b *Backend) wire.Conn {
	t.Helper()
	conn := dial(t, b.Addr())
	if f := readFirst(conn); !f.admitted() {
		t.Fatalf("slot holder not admitted: %+v", f)
	}
	return conn
}

// queue dials a connection expected to wait behind the session limit
// and returns once the backend counts it on sessions_waiting; the
// channel delivers what it is eventually told.
func queue(t *testing.T, b *Backend) <-chan firstFrame {
	t.Helper()
	conn := dial(t, b.Addr())
	ch := make(chan firstFrame, 1)
	go func() { ch <- readFirst(conn) }()
	waitFor(t, "connection to queue", func() bool { return b.waiting.Value() == 1 })
	return ch
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func await(t *testing.T, ch <-chan firstFrame) firstFrame {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("connection never heard from the backend")
		return firstFrame{}
	}
}

// TestAdmission walks the one admission semantic every caller of the
// package now shares: a free slot admits at once; a full backend queues
// the connection, which is then admitted when a slot frees, shed with
// BUSY and the retry hint when AdmissionWait expires, or turned away
// without a frame when the backend stops; AdmissionWait <= 0 queues
// without bound.
func TestAdmission(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait time.Duration
		run  func(t *testing.T, b *Backend, sink *logSink)
	}{
		{"free slot", time.Second, func(t *testing.T, b *Backend, _ *logSink) {
			holdSlot(t, b)
			if n := b.waiting.Value(); n != 0 {
				t.Errorf("sessions_waiting = %d with a free slot", n)
			}
		}},
		{"queued then admitted", 20 * time.Second, func(t *testing.T, b *Backend, _ *logSink) {
			holder := holdSlot(t, b)
			queued := queue(t, b)
			if got := b.health(); got != obs.HealthDegraded {
				t.Errorf("health while queueing = %q, want %q", got, obs.HealthDegraded)
			}
			holder.Close()
			if f := await(t, queued); !f.admitted() {
				t.Fatalf("queued connection not admitted after the slot freed: %+v", f)
			}
			if n := b.rejects.Value(); n != 0 {
				t.Errorf("busy_rejects_total = %d, want 0", n)
			}
		}},
		{"queued then BUSY with retry hint", 300 * time.Millisecond, func(t *testing.T, b *Backend, sink *logSink) {
			holdSlot(t, b)
			f := await(t, queue(t, b))
			if f.busy == nil {
				t.Fatalf("overflow connection not shed with BUSY: %+v", f)
			}
			if !errors.Is(f.busy, protocol.ErrServerBusy) || f.busy.RetryAfter != 300*time.Millisecond {
				t.Errorf("BUSY = %v (retry after %v), want ErrServerBusy with the admission wait", f.busy, f.busy.RetryAfter)
			}
			// Immediately after the rejection the backend is overloaded.
			if got := b.health(); got != obs.HealthOverloaded {
				t.Errorf("health after rejection = %q, want %q", got, obs.HealthOverloaded)
			}
			if n := b.rejects.Value(); n != 1 {
				t.Errorf("busy_rejects_total = %d, want 1", n)
			}
			waitFor(t, "rejection log line", func() bool {
				return sink.contains("rejected: busy (max-sessions=1 full past admission-wait=300ms)")
			})
		}},
		{"wait 0 queues without bound", 0, func(t *testing.T, b *Backend, _ *logSink) {
			holder := holdSlot(t, b)
			queued := queue(t, b)
			select {
			case f := <-queued:
				t.Fatalf("AdmissionWait 0 answered a queued connection: %+v", f)
			case <-time.After(300 * time.Millisecond):
			}
			holder.Close()
			if f := await(t, queued); !f.admitted() {
				t.Fatalf("queued connection not admitted after the slot freed: %+v", f)
			}
			if n := b.rejects.Value(); n != 0 {
				t.Errorf("busy_rejects_total = %d, want 0", n)
			}
		}},
		{"shutting down rejects the queue", 20 * time.Second, func(t *testing.T, b *Backend, sink *logSink) {
			holder := holdSlot(t, b)
			queued := queue(t, b)
			drained := make(chan bool, 1)
			go func() { drained <- b.Drain() }()
			if f := await(t, queued); f.err == nil {
				t.Fatalf("queued connection answered during shutdown: %+v", f)
			}
			if !sink.contains("rejected: shutting down") {
				t.Error("no shutting-down rejection logged")
			}
			holder.Close()
			if !<-drained {
				t.Error("Drain reported escalation though the last session ended")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &logSink{}
			cfg := testConfig(sink)
			cfg.MaxSessions, cfg.AdmissionWait = 1, tc.wait
			tc.run(t, start(t, cfg), sink)
		})
	}
}

// TestHandshakeTimeoutFreesSessionSlot is the peer-stall regression:
// with MaxSessions 1, a client that connects and then goes silent must
// not pin the only slot forever. The handshake deadline fires, the
// session errors out, the slot is released, and the connection queued
// behind it is admitted.
func TestHandshakeTimeoutFreesSessionSlot(t *testing.T) {
	cfg := testConfig(&logSink{})
	cfg.MaxSessions, cfg.AdmissionWait = 1, 20*time.Second
	cfg.Timeouts.Handshake = 300 * time.Millisecond
	ends := make(chan sessionEnd, 2) // the queued connection is silent too
	cfg.OnSessionEnd = func(s Session, err error) { ends <- sessionEnd{s, err} }
	b := start(t, cfg)

	// The stalled peer keeps its conn open so the backend cannot learn of
	// the stall from a disconnect.
	holdSlot(t, b)
	if f := await(t, queue(t, b)); !f.admitted() {
		t.Fatalf("queued connection never ran: stalled peer still holds the slot (%+v)", f)
	}
	first := <-ends
	if !errors.Is(first.err, protocol.ErrPhaseTimeout) || first.s.Established {
		t.Errorf("stalled session ended with %v (established=%v), want a setup-phase timeout", first.err, first.s.Established)
	}
}

type sessionEnd struct {
	s   Session
	err error
}

// TestOversizedFirstFrameFreesSessionSlot: before the OT set-up is done
// a peer has proven nothing, so a first frame announcing 64 MiB is
// refused from its length prefix alone — the error names the set-up
// cap, nothing near the announced size is allocated, and the slot, the
// gauge and the arena are all released.
func TestOversizedFirstFrameFreesSessionSlot(t *testing.T) {
	cfg := testConfig(&logSink{})
	cfg.MaxSessions, cfg.AdmissionWait = 1, 20*time.Second
	ends := make(chan sessionEnd, 2) // the slot check at the end is a session too
	cfg.OnSessionEnd = func(s Session, err error) { ends <- sessionEnd{s, err} }
	b := start(t, cfg)

	nc, err := net.DialTimeout("tcp", b.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if f := readFirst(wire.NewStreamConn(nc)); !f.admitted() {
		t.Fatalf("hostile peer not admitted: %+v", f)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := nc.Write([]byte{0x04, 0x00, 0x00, 0x00}); err != nil { // "a 64 MiB frame follows"
		t.Fatal(err)
	}
	first := <-ends
	runtime.ReadMemStats(&after)
	if first.err == nil || !strings.Contains(first.err.Error(), "exceeds limit 8192") || first.s.Established {
		t.Errorf("session ended with %v (established=%v), want a refusal naming the 8192-byte set-up cap", first.err, first.s.Established)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("refusing a 64 MiB length prefix allocated %d bytes", grew)
	}
	waitFor(t, "sessions_active to return to 0", func() bool {
		return b.Registry().Gauge("sessions_active", "").Value() == 0
	})
	if got := b.ArenaOutstanding(); got != 0 {
		t.Errorf("arena buffers outstanding: %d", got)
	}
	holdSlot(t, b) // the only slot is free again: the next peer is admitted at once
}

// TestDrain: a drain that in-flight sessions finish inside reports
// true; one they outlast logs the escalation, reports false, and Close
// then cancels the stragglers and still returns.
func TestDrain(t *testing.T) {
	t.Run("completes", func(t *testing.T) {
		b := start(t, testConfig(&logSink{}))
		holder := holdSlot(t, b)
		time.AfterFunc(100*time.Millisecond, func() { holder.Close() })
		begin := time.Now()
		if !b.Drain() {
			t.Fatal("Drain escalated though the session ended inside the deadline")
		}
		if d := time.Since(begin); d > 4*time.Second {
			t.Errorf("Drain took %v; it should return when the last session ends", d)
		}
		if _, err := net.DialTimeout("tcp", b.Addr(), time.Second); err == nil {
			t.Error("backend still accepts after Drain")
		}
	})
	t.Run("deadline escalates", func(t *testing.T) {
		sink := &logSink{}
		cfg := testConfig(sink)
		cfg.DrainTimeout = 200 * time.Millisecond
		b := start(t, cfg)
		holder := holdSlot(t, b) // silent for the whole 20s handshake budget
		if b.Drain() {
			t.Fatal("Drain reported success with a session still in flight")
		}
		if !sink.contains("drain deadline 200ms expired, cancelling in-flight sessions shutdown_busy_rejects=0") {
			t.Errorf("escalation not logged:\n%s", sink)
		}
		begin := time.Now()
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(begin); d > killGrace {
			t.Errorf("Close took %v: the cancelled session did not unwind", d)
		}
		if _, err := holder.RecvMsg(); err == nil {
			t.Error("straggler's connection survived Close")
		}
	})
}

// TestCrashAndRestartOnSameAddresses is what maxchaos does to a backend:
// Close with sessions in flight cuts them, and a fresh Start on the
// recorded addresses serves again.
func TestCrashAndRestartOnSameAddresses(t *testing.T) {
	cfg := testConfig(&logSink{})
	cfg.MetricsAddr = "127.0.0.1:0"
	b := start(t, cfg)
	cfg.Listen, cfg.MetricsAddr = b.Addr(), b.MetricsAddr()
	holder := holdSlot(t, b)

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.RecvMsg(); err == nil {
		t.Fatal("in-flight connection survived the crash")
	}
	if _, err := http.Get("http://" + cfg.MetricsAddr + "/healthz"); err == nil {
		t.Fatal("observability surface survived the crash")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The kernel can hold a freed port briefly.
	var again *Backend
	waitFor(t, "re-bind", func() bool {
		var err error
		again, err = Start(cfg)
		return err == nil
	})
	defer again.Close()
	if again.Addr() != cfg.Listen || again.MetricsAddr() != cfg.MetricsAddr {
		t.Fatalf("restarted on %s / %s, want %s / %s", again.Addr(), again.MetricsAddr(), cfg.Listen, cfg.MetricsAddr)
	}
	holdSlot(t, again)
	resp, err := http.Get("http://" + cfg.MetricsAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != obs.HealthOK {
		t.Errorf("healthz after restart = %q", body)
	}
	http.DefaultClient.CloseIdleConnections()
}

// panicConn blows up on its first send — the server hello.
type panicConn struct{ wire.Conn }

func (panicConn) SendMsg([]byte) error { panic("injected") }

// TestPanicCostsOneConnection: a panic under a connection handler is
// counted and logged, releases the session slot, and leaves the accept
// loop serving. The handler's deferred recover runs after the slot is
// released, so the next connection can be admitted before the counter
// and the log line land: poll for them rather than read them once.
func TestPanicCostsOneConnection(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig(sink)
	cfg.MaxSessions = 1
	var wraps atomic.Int64
	cfg.WrapConn = func(c wire.Conn) wire.Conn {
		if wraps.Add(1) == 1 {
			return panicConn{c}
		}
		return c
	}
	b := start(t, cfg)
	if f := readFirst(dial(t, b.Addr())); f.err == nil {
		t.Fatalf("panicking connection got an answer: %+v", f)
	}
	holdSlot(t, b)
	panics := b.Registry().Counter("panics_recovered_total", "")
	waitFor(t, "panics_recovered_total", func() bool { return panics.Value() > 0 })
	waitFor(t, "the panic's log line", func() bool {
		return sink.contains("recovered panic in connection handler: injected")
	})
	if n := panics.Value(); n != 1 {
		t.Errorf("panics_recovered_total = %d, want 1", n)
	}
}

// TestServeAndShutDownClean runs real sessions end to end — one served
// from the warm pool over two requests, one shed — and then checks what
// a finished backend must leave behind: WrapConn saw every accepted
// connection, the callbacks saw every request, and after Drain + Close
// every load gauge and pool depth reads zero, the arena holds nothing
// and the goroutine count is back to its baseline.
func TestServeAndShutDownClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sink := &logSink{}
	cfg := testConfig(sink)
	cfg.MaxSessions, cfg.AdmissionWait = 1, 50*time.Millisecond
	cfg.Precompute, cfg.PrecomputePool = true, 2
	var wraps, requests atomic.Int64
	cfg.WrapConn = func(c wire.Conn) wire.Conn { wraps.Add(1); return c }
	cfg.OnRequest = func(s Session, resp *protocol.Response) {
		if s.Requests != int(requests.Add(1)) || len(resp.Values) != len(testModel) {
			t.Errorf("OnRequest(%+v) with %d values", s, len(resp.Values))
		}
	}
	ends := make(chan sessionEnd, 1)
	cfg.OnSessionEnd = func(s Session, err error) { ends <- sessionEnd{s, err} }
	b := start(t, cfg)
	if err := b.Prefill(2); err != nil {
		t.Fatal(err)
	}
	snapshot := func() string {
		var sb strings.Builder
		if err := b.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	// The backend pre-garbles the one shape serve issues and nothing
	// else: a single pool, holding the 2 prefilled entries plus whatever
	// the background refill (target PrecomputePool = 2) got in first.
	var pools []string
	for _, line := range strings.Split(snapshot(), "\n") {
		if strings.HasPrefix(line, "precompute_pool_depth{") {
			pools = append(pools, line)
		}
	}
	const series = `precompute_pool_depth{shape="2x2/b8s/matvec/per-round"} `
	if len(pools) != 1 || !strings.HasPrefix(pools[0], series) {
		t.Fatalf("pool depth series after Prefill(2) = %q, want only %q", pools, series)
	}
	if depth, err := strconv.Atoi(strings.TrimPrefix(pools[0], series)); err != nil || depth < 2 || depth > 4 {
		t.Fatalf("pool depth after Prefill(2) = %q, want 2..4", pools[0])
	}

	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cli.Dial(dial(t, b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	// While the session holds the only slot, an overflow connection is
	// shed — and still passes through WrapConn.
	if f := readFirst(dial(t, b.Addr())); f.busy == nil {
		t.Fatalf("overflow connection not shed: %+v", f)
	}
	for _, y := range [][]int64{{4, 5}, {-3, 7}} {
		out, err := cs.Do(y)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range testModel {
			if want := row[0]*y[0] + row[1]*y[1]; out[i] != want {
				t.Errorf("y=%v row %d = %d, want %d", y, i, out[i], want)
			}
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	end := <-ends
	if end.err != nil || !end.s.Established || end.s.Requests != 2 || end.s.BytesIn == 0 || end.s.BytesOut == 0 || end.s.ID == "" {
		t.Errorf("session end = %+v, %v", end.s, end.err)
	}
	snap := b.Registry().Snapshot()
	if hits, misses := snap.CounterSum("precompute_hits_total", nil), snap.CounterSum("precompute_misses_total", nil); hits != 2 || misses != 0 {
		t.Errorf("pool hits/misses = %d/%d, want 2/0", hits, misses)
	}
	if got, conns := wraps.Load(), int64(b.conns.Value()); got != 2 || conns != 2 {
		t.Errorf("WrapConn saw %d connections, connections_total = %d, want 2 and 2", got, conns)
	}

	if !b.Drain() {
		t.Fatal("Drain escalated on an idle backend")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	final := snapshot()
	checked := 0
	for _, line := range strings.Split(final, "\n") {
		for _, gauge := range []string{"sessions_active", "sessions_waiting", "precompute_pool_depth", "precompute_refill_busy"} {
			if strings.HasPrefix(line, gauge) {
				checked++
				if !strings.HasSuffix(line, " 0") {
					t.Errorf("after shutdown: %s", line)
				}
			}
		}
	}
	if checked < 4 {
		t.Errorf("only %d gauge lines found in the final snapshot:\n%s", checked, final)
	}
	if n := b.ArenaOutstanding(); n != 0 {
		t.Errorf("ArenaOutstanding = %d after shutdown", n)
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

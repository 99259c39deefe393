package main

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/fixed"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// clientRun is one Dial + Do + Close over a fresh connection — the
// single-request convenience the protocol package used to export.
func clientRun(c *protocol.Client, conn wire.Conn, y []int64) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	out, err := cs.Do(y)
	if err != nil {
		return nil, err
	}
	if err := cs.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

func TestLoadModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte("[[1, 2], [3, 4]]"), 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := loadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1][0] != 3 {
		t.Fatalf("model = %v", m)
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := loadModel("/nonexistent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := loadModel(write("empty.json", "[]")); err == nil {
		t.Fatal("empty model accepted")
	}
	if _, err := loadModel(write("bad.json", "nope")); err == nil {
		t.Fatal("malformed model accepted")
	}
	// Ragged and empty rows must be rejected at load time with the
	// offending row named, not deep inside a session.
	_, err := loadModel(write("ragged.json", "[[1, 2], [3], [4, 5]]"))
	if err == nil {
		t.Fatal("ragged model accepted")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("ragged error does not name the row: %v", err)
	}
	_, err = loadModel(write("emptyrow.json", "[[1, 2], []]"))
	if err == nil {
		t.Fatal("empty row accepted")
	}
	if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("empty-row error does not name the row: %v", err)
	}
	if _, err := loadModel(write("emptyfirst.json", "[[]]")); err == nil {
		t.Fatal("empty first row accepted")
	}
}

func TestValidateModel(t *testing.T) {
	if err := validateModel([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := validateModel([][]float64{{1}, {2, 3}}); err == nil ||
		!strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged matrix error = %v", err)
	}
}

func TestDemoModelShapeAndRange(t *testing.T) {
	f := fixed.Format{Width: 16, Frac: 6}
	m := demoModel(3, 5, 42, f)
	if len(m) != 3 || len(m[0]) != 5 {
		t.Fatalf("shape %dx%d", len(m), len(m[0]))
	}
	for _, row := range m {
		for _, v := range row {
			if math.Abs(v) > f.Max()/8 {
				t.Fatalf("demo value %v outside scale", v)
			}
		}
	}
	// Deterministic per seed.
	if demoModel(3, 5, 42, f)[0][0] != m[0][0] {
		t.Fatal("demo model not reproducible")
	}
}

func TestRunValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*daemonConfig)
	}{
		{"bad fixed-point format", func(dc *daemonConfig) { dc.frac = 40 }},
		{"missing model", func(dc *daemonConfig) { dc.demoRows = 0 }},
		{"bad listen address", func(dc *daemonConfig) { dc.Listen = "256.0.0.1:99999" }},
		{"bad metrics address", func(dc *daemonConfig) { dc.MetricsAddr = "256.0.0.1:99999" }},
	} {
		dc := testConfig("127.0.0.1:0", "")
		tc.edit(&dc)
		if err := run(dc); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// testConfig is the daemon every e2e test boots: a 2×2 demo model at
// b=8 in -once mode; tests edit the fields they are about.
func testConfig(listen, metricsAddr string) daemonConfig {
	return daemonConfig{
		Config: backend.Config{
			Listen: listen, MetricsAddr: metricsAddr, Width: 8,
			DrainTimeout: 5 * time.Second,
		},
		frac: 3, demoRows: 2, demoCols: 2, seed: 7, once: true,
	}
}

// freePort grabs an ephemeral port and frees it for the daemon.
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

func dialWire(t *testing.T, addr string) wire.Conn {
	t.Helper()
	for i := 0; i < 200; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return wire.NewStreamConn(c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("maxd did not come up")
	return nil
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %s", url, resp.Status)
			}
			return string(body)
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return ""
}

func TestServeOneSessionEndToEnd(t *testing.T) {
	// Boot maxd on an ephemeral port in -once mode and run a real
	// client against it.
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(testConfig(addr, ""))
	}()

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	out, err := clientRun(cli, conn, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d outputs", len(out))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSurfaceUpBeforeSessions checks the sidecar comes up with
// the daemon and serves an empty (but well-formed) surface before any
// client connects; in -once mode the daemon still exits cleanly.
func TestMetricsSurfaceUpBeforeSessions(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(testConfig(addr, maddr))
	}()

	if body := httpGet(t, "http://"+maddr+"/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
	before := httpGet(t, "http://"+maddr+"/metrics")
	if strings.Contains(before, "sessions_total") {
		t.Fatalf("sessions_total present before any session:\n%s", before)
	}
	// Byte counters are registered (zero) from boot so dashboards can
	// discover them before traffic arrives.
	if !strings.Contains(before, "wire_bytes_in_total 0") {
		t.Fatalf("wire counters not pre-registered:\n%s", before)
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsCountersMoveAndSpansRecorded(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		dc := testConfig(addr, maddr)
		dc.once = false
		done <- run(dc)
	}()

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Poll /metrics until the session has ended on the server, which
	// may still be finishing when the client returns: session_seconds
	// is the last thing a finishing session records (sessions_total is
	// counted when it begins, so it says nothing about the end).
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		body = httpGet(t, "http://"+maddr+"/metrics")
		if strings.Contains(body, `session_seconds_count{kind="mux"} 1`) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		`sessions_total{kind="mux"} 1`,
		"sessions_active 0",
		"macs_total 4", // 2 rows × 2 cols
		"connections_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Counters that must have moved off zero.
	for _, name := range []string{
		"cycles_total", "tables_garbled_total", "table_bytes_total",
		"trace_cycles_total", "wire_bytes_in_total", "wire_bytes_out_total",
	} {
		if !counterMoved(body, name) {
			t.Fatalf("counter %s did not move:\n%s", name, body)
		}
	}
	for _, want := range []string{
		// stall_cycles_total is exposed even when the tiny demo session
		// never saturates the output port (value may be 0 here; the
		// stalling path is pinned by internal/maxsim tests).
		"# TYPE stall_cycles_total counter",
		"# TYPE ot_setup_seconds histogram",
		"# TYPE session_seconds histogram",
		"ot_setup_seconds_count 1",
		`core_idle_slots_total{core="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/sessions: the completed session must show the span
	// taxonomy with non-zero monotonic durations.
	var parsed struct {
		Sessions []obs.SessionSnapshot `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+maddr+"/debug/sessions")), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Sessions) != 1 {
		t.Fatalf("%d sessions in debug surface", len(parsed.Sessions))
	}
	s := parsed.Sessions[0]
	if !s.Done || s.Err != "" || s.DurationUS <= 0 {
		t.Fatalf("session %+v", s)
	}
	spans := map[string]int64{}
	for _, sp := range s.Spans {
		spans[sp.Name] = sp.DurationUS
	}
	for _, phase := range []string{"handshake", "ot_setup", "rounds", "decode"} {
		d, ok := spans[phase]
		if !ok {
			t.Fatalf("span %s missing: %+v", phase, s.Spans)
		}
		if d < 0 {
			t.Fatalf("span %s left open", phase)
		}
	}
	if spans["ot_setup"] <= 0 || spans["rounds"] <= 0 {
		t.Fatalf("crypto phases report zero duration: %+v", spans)
	}
	if s.Attrs["bytes_in"] == "" || s.Attrs["bytes_out"] == "" {
		t.Fatalf("byte attrs missing: %+v", s.Attrs)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	terminate(t, done)
}

// counterMoved reports whether the exposition shows a non-zero value
// for the given counter family.
func counterMoved(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}

// TestPrecomputeWarmPoolServesAndDrainsOnShutdown boots maxd with the
// offline/online split on, waits for the background workers to warm
// the model's pool, serves one real client from it, and checks the
// shutdown invariant of ISSUE 5: the final metrics snapshot reports
// the hit and zero pooled capacity — no phantom entries survive the
// daemon.
func TestPrecomputeWarmPoolServesAndDrainsOnShutdown(t *testing.T) {
	var logBuf syncBuffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)

	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		dc := testConfig(addr, maddr)
		dc.Precompute, dc.PrecomputePool = true, 1
		done <- run(dc)
	}()

	// Wait for the refill workers to warm the admitted shape.
	const depthLine = `precompute_pool_depth{shape="2x2/b8s/matvec/per-round"} 1`
	warm := false
	for i := 0; i < 500 && !warm; i++ {
		warm = strings.Contains(httpGet(t, "http://"+maddr+"/metrics"), depthLine)
		if !warm {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !warm {
		t.Fatal("pool never warmed for the model shape")
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The final snapshot (after engine Stop) must show the hit and a
	// fully drained pool.
	logs := logBuf.String()
	snap := logs[strings.LastIndex(logs, "final metrics snapshot"):]
	if !strings.Contains(snap, `precompute_hits_total{shape="2x2/b8s/matvec/per-round"} 1`) {
		t.Fatalf("warm pool did not serve the request:\n%s", snap)
	}
	if !strings.Contains(snap, `precompute_pool_depth{shape="2x2/b8s/matvec/per-round"} 0`) {
		t.Fatalf("pool depth not drained to zero at shutdown:\n%s", snap)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run's goroutine logs
// concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAdvertiseShapezEndpoint: -advertise mounts /shapez on the
// metrics address with the shapes the daemon serves warm — with
// -precompute, exactly the one shape the daemon issues (the model over
// per-round OT), pre-admitted at boot. This is the surface maxgw's
// prober folds into routing.
func TestAdvertiseShapezEndpoint(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		dc := testConfig(addr, maddr)
		dc.Precompute, dc.PrecomputePool, dc.Advertise = true, 1, true
		done <- run(dc)
	}()

	body := httpGet(t, "http://"+maddr+"/shapez")
	var payload struct {
		Shapes []string `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("parsing /shapez %q: %v", body, err)
	}
	if want := "2x2/b8s/matvec/per-round"; len(payload.Shapes) != 1 || payload.Shapes[0] != want {
		t.Fatalf("/shapez = %v, want exactly [%s]", payload.Shapes, want)
	}
	// /metrics still answers on the same address next to /shapez.
	if !strings.Contains(httpGet(t, "http://"+maddr+"/metrics"), "precompute_pool_depth") {
		t.Fatal("/metrics lost behind the advertise mux")
	}

	// Serve the one -once session so the daemon exits cleanly.
	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	defer conn.Close()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cli.Dial(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Do(raw); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestAdvertiseRequiresMetricsAddr: /shapez lives on the metrics mux,
// so -advertise without -metrics-addr is a config error, not a silent
// no-op a gateway would probe forever.
func TestAdvertiseRequiresMetricsAddr(t *testing.T) {
	dc := testConfig(freePort(t), "")
	dc.Advertise = true
	err := run(dc)
	if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("err = %v, want a -metrics-addr requirement", err)
	}
}

// TestMetricsHandlerPprofGating: the pprof surface exists only behind
// the flag — a daemon without -pprof must 404 every /debug/pprof path
// while the rest of the surface answers; with -pprof the index, cmdline
// and heap routes answer alongside /metrics and /healthz.
func TestMetricsHandlerPprofGating(t *testing.T) {
	pprofPaths := []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap"}
	for _, pprofOn := range []bool{false, true} {
		addr, maddr := freePort(t), freePort(t)
		done := make(chan error, 1)
		go func() {
			dc := testConfig(addr, maddr)
			dc.once = false
			dc.Pprof = pprofOn
			done <- run(dc)
		}()
		for _, path := range []string{"/metrics", "/healthz"} {
			if body := httpGet(t, "http://"+maddr+path); body == "" {
				t.Errorf("GET %s (pprof=%v) returned an empty body", path, pprofOn)
			}
		}
		for _, path := range pprofPaths {
			resp, err := http.Get("http://" + maddr + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case !pprofOn && resp.StatusCode != http.StatusNotFound:
				t.Errorf("GET %s without -pprof = %s, want 404", path, resp.Status)
			case pprofOn && (resp.StatusCode != http.StatusOK || len(body) == 0):
				t.Errorf("GET %s with -pprof = %s, %d-byte body, want 200 and a body", path, resp.Status, len(body))
			}
		}
		terminate(t, done)
	}
}

// terminate sends the test process SIGTERM — which run's signal handler
// owns while it is up — and waits for the daemon to shut down cleanly.
func terminate(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestPprofRequiresMetricsAddr: the flag is meaningless without the
// sidecar, so the daemon refuses the combination instead of silently
// profiling nothing.
func TestPprofRequiresMetricsAddr(t *testing.T) {
	dc := testConfig("127.0.0.1:0", "")
	dc.Pprof = true
	err := run(dc)
	if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("err = %v, want -pprof requires -metrics-addr", err)
	}
}

// TestRuntimeMetricsAndPprofEndToEnd boots maxd with -metrics-addr and
// -pprof and checks the acceptance surface: /metrics exposes the
// runtime collector families and /debug/pprof/profile yields a usable
// CPU profile capture from the live daemon.
func TestRuntimeMetricsAndPprofEndToEnd(t *testing.T) {
	addr, maddr := freePort(t), freePort(t)
	done := make(chan error, 1)
	go func() {
		dc := testConfig(addr, maddr)
		dc.Pprof = true
		done <- run(dc)
	}()

	metrics := httpGet(t, "http://"+maddr+"/metrics")
	for _, want := range []string{
		"runtime_goroutines ",
		"runtime_heap_inuse_bytes ",
		"runtime_gc_pause_seconds_bucket",
		"runtime_gc_cycles_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// A one-second CPU capture through the live daemon: the pprof proto
	// payload is gzip-framed (0x1f 0x8b) and non-trivial.
	profile := httpGet(t, "http://"+maddr+"/debug/pprof/profile?seconds=1")
	if len(profile) < 2 || profile[0] != 0x1f || byte(profile[1]) != 0x8b {
		t.Fatalf("profile capture not a gzip pprof payload (%d bytes)", len(profile))
	}

	f := fixed.Format{Width: 8, Frac: 3}
	raw, err := f.EncodeVector([]float64{1.0, -1.5})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientRun(cli, conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

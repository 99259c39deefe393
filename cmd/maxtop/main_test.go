package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxelerator/internal/gateway"
)

// exposition is a canned maxd /metrics scrape (the shapes maxtop must
// understand: bare counters, labelled families, histogram series).
const exposition = `# HELP macs_total MAC rounds garbled
# TYPE macs_total counter
macs_total 1200
# TYPE sessions_total counter
sessions_total{kind="matvec"} 3
sessions_total{kind="mux"} 1
# TYPE session_errors_total counter
session_errors_total{kind="matvec"} 1
# TYPE sessions_active gauge
sessions_active 2
connections_total 5
tables_garbled_total 4800
table_bytes_total 307200
trace_cycles_total 1000
stall_cycles_total 250
peak_memory_bytes 8192
pcie_drained_bytes_total 307200
wire_bytes_in_total 2048
wire_bytes_out_total 1048576
# TYPE ot_setup_seconds histogram
ot_setup_seconds_bucket{le="0.01"} 2
ot_setup_seconds_bucket{le="+Inf"} 4
ot_setup_seconds_sum 0.02
ot_setup_seconds_count 4
session_seconds_sum{kind="matvec"} 1.5
session_seconds_count{kind="matvec"} 3
core_tables_total{core="0"} 100
core_tables_total{core="1"} 90
core_tables_total{core="10"} 80
core_idle_slots_total{core="0"} 7
# TYPE precompute_hits_total counter
precompute_hits_total{shape="16x16/b16s/matvec/batched"} 9
precompute_misses_total{shape="16x16/b16s/matvec/batched"} 1
precompute_misses_total{shape="4x8/b16s/matvec/per-round"} 2
precompute_pool_depth{shape="16x16/b16s/matvec/batched"} 3
# TYPE runtime_goroutines gauge
runtime_goroutines 12
runtime_heap_inuse_bytes 3145728
runtime_heap_idle_bytes 1048576
runtime_gc_cycles_total 4
# TYPE runtime_gc_pause_seconds histogram
runtime_gc_pause_seconds_bucket{le="0.0001"} 8
runtime_gc_pause_seconds_bucket{le="0.001"} 10
runtime_gc_pause_seconds_bucket{le="+Inf"} 10
runtime_gc_pause_seconds_sum 0.0008
runtime_gc_pause_seconds_count 10
`

func TestParseMetrics(t *testing.T) {
	snap, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.val("macs_total"); v != 1200 {
		t.Fatalf("macs_total = %v", v)
	}
	if v := snap.val("sessions_total", "kind", "mux"); v != 1 {
		t.Fatalf("mux sessions = %v", v)
	}
	if v := snap.val("ot_setup_seconds_bucket", "le", "+Inf"); v != 4 {
		t.Fatalf("+Inf bucket = %v", v)
	}
	if _, ok := snap.get("nonexistent"); ok {
		t.Fatal("phantom sample")
	}
	// Numeric core labels sort numerically: 0, 1, 10.
	cores := snap.sumBy("core_tables_total", "core")
	if len(cores) != 3 || cores[2].Label != "10" || cores[2].Value != 80 {
		t.Fatalf("cores = %+v", cores)
	}
}

func TestParseMetricsSkipsGarbage(t *testing.T) {
	snap, err := parseMetrics(strings.NewReader("not a metric\nx{ 1\nok_total 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.val("ok_total"); v != 7 {
		t.Fatalf("ok_total = %v (garbage lines must not abort the parse)", v)
	}
}

func TestSplitLabels(t *testing.T) {
	got := splitLabels(`a="x,y",b="z"`)
	if len(got) != 2 || got[0] != `a="x,y"` || got[1] != `b="z"` {
		t.Fatalf("splitLabels = %q", got)
	}
}

func TestRenderFrame(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	var sb strings.Builder
	render(&sb, "http://x/metrics", nil, cur, nil)
	out := sb.String()
	for _, want := range []string{
		"sessions    total 4   active 2   errors 1   connections 5",
		"macs 1200",
		"table bytes 300.0 KiB",
		"stall 25.0%", // 250 / 1000 trace cycles
		"peak 8.0 KiB",
		"in 2.0 KiB   out 1.0 MiB",
		"ot_setup avg 5.00ms (n=4)",
		"session avg 500.00ms (n=3)",
		"precompute  hits 9   misses 3   hit ratio 75%",
		"runtime     goroutines 12   heap inuse 3.0 MiB   idle 1.0 MiB   gc cycles 4",
		"gc pause p99",
		"per-shape",
		"16x16/b16s/matvec/batched",
		"4x8/b16s/matvec/per-round",
		"per-core",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	// The all-miss shape shows an empty depth and 0% hit ratio.
	if !strings.Contains(out, "0%") {
		t.Fatalf("per-shape hit ratio missing:\n%s", out)
	}
}

// TestRenderFrameWithoutPrecompute: a daemon running without
// -precompute (or without the runtime collector) must not grow
// phantom panels.
func TestRenderFrameWithoutPrecompute(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader("macs_total 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	var sb strings.Builder
	render(&sb, "u", nil, cur, nil)
	if strings.Contains(sb.String(), "precompute") {
		t.Fatalf("precompute panel rendered with no precompute metrics:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "runtime") {
		t.Fatalf("runtime panel rendered with no runtime metrics:\n%s", sb.String())
	}
}

// TestHistQuantile pins the scraped-bucket quantile reconstruction the
// runtime panel's GC pause p99 uses.
func TestHistQuantile(t *testing.T) {
	snap, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	// 8 of 10 samples under 0.1ms, all 10 under 1ms: p50 interpolates
	// inside the first bucket, p99 inside the second.
	p50, ok := histQuantile(snap, "runtime_gc_pause_seconds", 0.5)
	if !ok || p50 <= 0 || p50 > 0.0001 {
		t.Fatalf("p50 = %v, %v", p50, ok)
	}
	p99, ok := histQuantile(snap, "runtime_gc_pause_seconds", 0.99)
	if !ok || p99 <= 0.0001 || p99 > 0.001 {
		t.Fatalf("p99 = %v, %v", p99, ok)
	}
	if _, ok := histQuantile(snap, "absent_seconds", 0.5); ok {
		t.Fatal("absent histogram produced a quantile")
	}
	empty, err := parseMetrics(strings.NewReader("e_bucket{le=\"+Inf\"} 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := histQuantile(empty, "e", 0.5); ok {
		t.Fatal("empty histogram produced a quantile")
	}
	// All mass above the last finite bound: the reconstruction can only
	// clamp, which is a floor rather than an estimate — must report !ok.
	overflow, err := parseMetrics(strings.NewReader(
		"o_bucket{le=\"0.001\"} 0\no_bucket{le=\"+Inf\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := histQuantile(overflow, "o", 0.99); ok {
		t.Fatalf("+Inf-winner histogram produced a quantile (%v)", v)
	}
}

// TestRenderRuntimePanelEmptyPauses: a daemon that has never GCed
// still renders the panel, with the pause quantile dashed out.
func TestRenderRuntimePanelEmptyPauses(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(
		"runtime_goroutines 5\nruntime_gc_pause_seconds_bucket{le=\"+Inf\"} 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	var sb strings.Builder
	render(&sb, "u", nil, cur, nil)
	if !strings.Contains(sb.String(), "gc pause p99 —") {
		t.Fatalf("empty pause histogram not dashed:\n%s", sb.String())
	}
}

// TestRenderRuntimePanelOverflowPauses: every recorded pause landed in
// the +Inf bucket, so no finite p99 exists — the panel must dash the
// quantile rather than render the clamped finite bound as if it were a
// measured pause.
func TestRenderRuntimePanelOverflowPauses(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(
		"runtime_goroutines 5\n" +
			"runtime_gc_pause_seconds_bucket{le=\"0.0001\"} 0\n" +
			"runtime_gc_pause_seconds_bucket{le=\"+Inf\"} 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	var sb strings.Builder
	render(&sb, "u", nil, cur, nil)
	if !strings.Contains(sb.String(), "gc pause p99 —") {
		t.Fatalf("+Inf-winner pause histogram not dashed:\n%s", sb.String())
	}
}

func TestRenderRates(t *testing.T) {
	prev, _ := parseMetrics(strings.NewReader("macs_total 1000\nwire_bytes_out_total 0\n"))
	cur, _ := parseMetrics(strings.NewReader("macs_total 1200\nwire_bytes_out_total 2048\n"))
	prev.when = time.Unix(1000, 0)
	cur.when = time.Unix(1002, 0)
	var sb strings.Builder
	render(&sb, "u", prev, cur, nil)
	out := sb.String()
	if !strings.Contains(out, "rate 100.0 MAC/s") {
		t.Fatalf("MAC rate missing:\n%s", out)
	}
	if !strings.Contains(out, "rate 1.0 KiB/s out") {
		t.Fatalf("wire rate missing:\n%s", out)
	}
}

func TestWatchAgainstFakeDaemon(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(exposition))
	}))
	defer srv.Close()
	var sb strings.Builder
	if err := watch(&sb, srv.URL, time.Millisecond, 2, false); err != nil {
		t.Fatal(err)
	}
	// Two frames, second with rates (zero delta → 0.0 MAC/s).
	if got := strings.Count(sb.String(), "maxtop —"); got != 2 {
		t.Fatalf("%d frames rendered", got)
	}
	if !strings.Contains(sb.String(), "rate 0.0 MAC/s") {
		t.Fatalf("second frame lacks rate:\n%s", sb.String())
	}
}

// gwExposition is a canned maxgw scrape: the fleet panel's families.
const gwExposition = `gw_backends_total 3
gw_backends_healthy 2
gw_sessions_active 1
gw_sessions_total{backend="10.0.0.1:7700"} 5
gw_sessions_total{backend="10.0.0.2:7700"} 2
gw_failovers_total{reason="busy"} 2
gw_failovers_total{reason="dial"} 1
gw_shed_total 1
gw_peeks_total{result="hint"} 6
gw_peeks_total{result="none"} 1
gw_peek_errors_total 0
gw_membership_changes_total{backend="10.0.0.3:7700",change="eject"} 1
`

func TestRenderFleetPanel(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(gwExposition))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	fleet := []gateway.BackendStatus{
		{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok", Active: 1, Sessions: 5,
			Shapes: []string{"4x4/b16s/matvec/per-round"}},
		{Addr: "10.0.0.2:7700", Healthy: true, Status: "ok", Sessions: 2},
		{Addr: "10.0.0.3:7700", Healthy: false, Status: "unreachable"},
	}
	var sb strings.Builder
	render(&sb, "u", nil, cur, fleet)
	out := sb.String()
	for _, want := range []string{
		"fleet       backends 2/3 healthy   active 1   failovers 3   shed 1 (busy 2, dial 1)",
		"routing     hinted 6   unhinted 1   peek errors 0   membership changes 1",
		"per-backend",
		"4x4/b16s/matvec/per-round",
		"unreachable (ejected)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet frame missing %q:\n%s", want, out)
		}
	}
}

// gwResilienceExposition extends the gateway scrape with the
// resilience families a post-breaker maxgw exports.
const gwResilienceExposition = gwExposition + `gw_retry_budget_tokens_milli 8500
gw_retry_budget_exhausted_total 2
gw_hint_misses_total{shape="9x9/b8s/matvec/per-round"} 4
gw_breaker_state{backend="10.0.0.3:7700"} 1
`

// TestRenderFleetPanelAggregates: the resilience columns and the
// summed fleet row. The aggregate latency is load-weighted: backend .1
// carries 3 of the 4 in-flight sessions at 10ms, backend .2 one at
// 50ms → (3·10+1·50)/4 = 20ms, not the 30ms plain mean.
func TestRenderFleetPanelAggregates(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(gwResilienceExposition))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	fleet := []gateway.BackendStatus{
		{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok", Breaker: "closed",
			Active: 3, LatencyEWMAMs: 10},
		{Addr: "10.0.0.2:7700", Healthy: true, Status: "ok", Breaker: "closed",
			Active: 1, LatencyEWMAMs: 50, Ejected: true},
		{Addr: "10.0.0.3:7700", Healthy: false, Status: "unreachable", Breaker: "open"},
	}
	var sb strings.Builder
	render(&sb, "u", nil, cur, fleet)
	out := sb.String()
	for _, want := range []string{
		"budget 8.5 tokens (2 denied)",
		"hint misses 4",
		"breaker",
		"open",
		"50.0ms (slow)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet frame missing %q:\n%s", want, out)
		}
	}
	// The aggregate row: 2/3 up, 4 active, 7 sessions (5+2 scraped),
	// load-weighted 20ms.
	var all string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "ALL") {
			all = line
		}
	}
	if all == "" {
		t.Fatalf("aggregate ALL row missing:\n%s", out)
	}
	for _, want := range []string{"2/3 up", "4", "7", "20.0ms"} {
		if !strings.Contains(all, want) {
			t.Fatalf("aggregate row missing %q: %q", want, all)
		}
	}
}

// TestRenderFleetPanelOldGateway: a pre-resilience gateway (no budget
// or breaker families, no breaker fields on /fleetz) renders dashes,
// not zeros, and no budget figure.
func TestRenderFleetPanelOldGateway(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(gwExposition))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	fleet := []gateway.BackendStatus{{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok"}}
	var sb strings.Builder
	render(&sb, "u", nil, cur, fleet)
	if strings.Contains(sb.String(), "budget") {
		t.Fatalf("budget figure rendered without the metric:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "hint misses") {
		t.Fatalf("hint misses rendered without the metric:\n%s", sb.String())
	}
}

// TestRenderNoFleetPanel: a plain maxd scrape must not grow the fleet
// panel.
func TestRenderNoFleetPanel(t *testing.T) {
	cur, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	cur.when = time.Unix(1000, 0)
	var sb strings.Builder
	render(&sb, "u", nil, cur, nil)
	if strings.Contains(sb.String(), "fleet") {
		t.Fatalf("fleet panel rendered from a maxd scrape:\n%s", sb.String())
	}
}

// TestWatchFetchesFleetz: a maxgw-shaped daemon gets its /fleetz
// scraped and the backend table rendered.
func TestWatchFetchesFleetz(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(gwExposition))
	})
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"backends":[{"addr":"10.0.0.1:7700","healthy":true,"status":"ok","sessions_total":5}]}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var sb strings.Builder
	if err := watch(&sb, srv.URL+"/metrics", time.Millisecond, 1, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "per-backend") {
		t.Fatalf("fleet table missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "10.0.0.1:7700") {
		t.Fatalf("backend row missing:\n%s", sb.String())
	}
}

func TestWatchScrapeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	if err := watch(&strings.Builder{}, srv.URL, time.Millisecond, 1, false); err == nil {
		t.Fatal("unhealthy endpoint accepted")
	}
}

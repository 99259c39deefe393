package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maxelerator/internal/gateway"
	"maxelerator/internal/obs"
)

// maxdRegistry is a canned maxd registry (the shapes maxtop must
// understand: bare counters, labelled families, gauges, histograms).
func maxdRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("macs_total", "").Add(1200)
	r.Counter("sessions_total", "", obs.L("kind", "matvec")).Add(3)
	r.Counter("sessions_total", "", obs.L("kind", "mux")).Add(1)
	r.Counter("session_errors_total", "", obs.L("kind", "matvec")).Add(1)
	r.Gauge("sessions_active", "").Set(2)
	r.Counter("connections_total", "").Add(5)
	r.Counter("tables_garbled_total", "").Add(4800)
	r.Counter("table_bytes_total", "").Add(307200)
	r.Counter("trace_cycles_total", "").Add(1000)
	r.Counter("stall_cycles_total", "").Add(250)
	r.Gauge("peak_memory_bytes", "").Set(8192)
	r.Counter("pcie_drained_bytes_total", "").Add(307200)
	r.Counter("wire_bytes_in_total", "").Add(2048)
	r.Counter("wire_bytes_out_total", "").Add(1048576)
	for i := 0; i < 4; i++ {
		r.Histogram("ot_setup_seconds", "", nil).Observe(0.005)
	}
	for i := 0; i < 3; i++ {
		r.Histogram("session_seconds", "", nil, obs.L("kind", "matvec")).Observe(0.5)
	}
	r.Counter("core_tables_total", "", obs.L("core", "0")).Add(100)
	r.Counter("core_tables_total", "", obs.L("core", "1")).Add(90)
	r.Counter("core_tables_total", "", obs.L("core", "10")).Add(80)
	r.Counter("core_idle_slots_total", "", obs.L("core", "0")).Add(7)
	r.Counter("precompute_hits_total", "", obs.L("shape", "16x16/b16s/matvec/batched")).Add(9)
	r.Counter("precompute_misses_total", "", obs.L("shape", "16x16/b16s/matvec/batched")).Add(1)
	r.Counter("precompute_misses_total", "", obs.L("shape", "4x8/b16s/matvec/per-round")).Add(2)
	r.Gauge("precompute_pool_depth", "", obs.L("shape", "16x16/b16s/matvec/batched")).Set(3)
	r.Gauge("runtime_goroutines", "").Set(12)
	r.Gauge("runtime_heap_inuse_bytes", "").Set(3145728)
	r.Gauge("runtime_heap_idle_bytes", "").Set(1048576)
	r.Counter("runtime_gc_cycles_total", "").Add(4)
	// 8 of 10 pauses under 0.1ms, all 10 under 1ms: p99 interpolates
	// inside the second bucket.
	pauses := r.Histogram("runtime_gc_pause_seconds", "", []float64{0.0001, 0.001})
	for i := 0; i < 8; i++ {
		pauses.Observe(0.00005)
	}
	pauses.Observe(0.0005)
	pauses.Observe(0.0005)
	return r
}

// frame freezes r as a scrape taken at unix second sec.
func frame(r *obs.Registry, sec int64) *snapshot {
	return &snapshot{Snapshot: r.Snapshot(), when: time.Unix(sec, 0)}
}

// renderOf renders one first frame of r.
func renderOf(r *obs.Registry, fleet []gateway.BackendStatus) string {
	var sb strings.Builder
	render(&sb, "u", nil, frame(r, 1000), fleet)
	return sb.String()
}

// fakeDaemon serves r's snapshot on /histz, as maxd and maxgw do.
func fakeDaemon(r *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/histz", func(w http.ResponseWriter, _ *http.Request) { r.SnapshotJSON(w) })
	return mux
}

func TestRenderFrame(t *testing.T) {
	var sb strings.Builder
	render(&sb, "http://x/histz", nil, frame(maxdRegistry(), 1000), nil)
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
	// Numeric core labels sort numerically: 0, 1, 10.
	if i0, i1, i10 := strings.Index(out, " 100 "), strings.Index(out, " 90 "), strings.Index(out, " 80 "); i0 < 0 || i0 > i1 || i1 > i10 {
		t.Fatalf("per-core rows not in numeric core order:\n%s", out)
	}
}

// TestRenderFrameWithoutPrecompute: a daemon running without
// -precompute (or without the runtime collector) must not grow
// phantom panels.
func TestRenderFrameWithoutPrecompute(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("macs_total", "").Add(10)
	out := renderOf(r, nil)
	if strings.Contains(out, "precompute") {
		t.Fatalf("precompute panel rendered with no precompute metrics:\n%s", out)
	}
	if strings.Contains(out, "runtime") {
		t.Fatalf("runtime panel rendered with no runtime metrics:\n%s", out)
	}
}

// TestRenderGCPauseP99 pins the runtime panel's GC pause p99: the
// decoded histogram's quantile, interpolated inside the second bucket
// (0.1ms, 1ms] where 2 of the 10 pauses landed.
func TestRenderGCPauseP99(t *testing.T) {
	if out := renderOf(maxdRegistry(), nil); !strings.Contains(out, "gc pause p99 955.00µs") {
		t.Fatalf("p99 not interpolated inside the second bucket:\n%s", out)
	}
}

// TestRenderRuntimePanelEmptyPauses: a daemon that has never GCed —
// or exports no pause histogram at all — still renders the panel, with
// the pause quantile dashed out.
func TestRenderRuntimePanelEmptyPauses(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("runtime_goroutines", "").Set(5)
	if out := renderOf(r, nil); !strings.Contains(out, "gc pause p99 —") {
		t.Fatalf("absent pause histogram not dashed:\n%s", out)
	}
	r.Histogram("runtime_gc_pause_seconds", "", obs.GCPauseBuckets)
	if out := renderOf(r, nil); !strings.Contains(out, "gc pause p99 —") {
		t.Fatalf("empty pause histogram not dashed:\n%s", out)
	}
}

// TestRenderRuntimePanelOverflowPauses: every recorded pause landed in
// the +Inf bucket, so no finite p99 exists — the panel must dash the
// quantile rather than render the clamped finite bound as if it were a
// measured pause.
func TestRenderRuntimePanelOverflowPauses(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("runtime_goroutines", "").Set(5)
	pauses := r.Histogram("runtime_gc_pause_seconds", "", []float64{0.0001})
	pauses.Observe(0.5)
	pauses.Observe(0.5)
	if out := renderOf(r, nil); !strings.Contains(out, "gc pause p99 —") {
		t.Fatalf("+Inf-winner pause histogram not dashed:\n%s", out)
	}
}

func TestRenderRates(t *testing.T) {
	r := obs.NewRegistry()
	macs, out := r.Counter("macs_total", ""), r.Counter("wire_bytes_out_total", "")
	macs.Add(1000)
	prev := frame(r, 1000)
	macs.Add(200)
	out.Add(2048)
	var sb strings.Builder
	render(&sb, "u", prev, frame(r, 1002), nil)
	if !strings.Contains(sb.String(), "rate 100.0 MAC/s") {
		t.Fatalf("MAC rate missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "rate 1.0 KiB/s out") {
		t.Fatalf("wire rate missing:\n%s", sb.String())
	}
}

func TestWatchAgainstFakeDaemon(t *testing.T) {
	srv := httptest.NewServer(fakeDaemon(maxdRegistry()))
	defer srv.Close()
	var sb strings.Builder
	if err := watch(&sb, srv.URL+"/histz", time.Millisecond, 2, false); err != nil {
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

// gwRegistry is a canned maxgw registry: the fleet panel's families.
func gwRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Gauge("gw_backends_total", "").Set(3)
	r.Gauge("gw_backends_healthy", "").Set(2)
	r.Gauge("gw_sessions_active", "").Set(1)
	r.Counter("gw_sessions_total", "", obs.L("backend", "10.0.0.1:7700")).Add(5)
	r.Counter("gw_sessions_total", "", obs.L("backend", "10.0.0.2:7700")).Add(2)
	r.Counter("gw_failovers_total", "", obs.L("reason", "busy")).Add(2)
	r.Counter("gw_failovers_total", "", obs.L("reason", "dial")).Add(1)
	r.Counter("gw_shed_total", "").Add(1)
	r.Counter("gw_peeks_total", "", obs.L("result", "hint")).Add(6)
	r.Counter("gw_peeks_total", "", obs.L("result", "none")).Add(1)
	r.Counter("gw_peek_errors_total", "")
	r.Counter("gw_membership_changes_total", "", obs.L("backend", "10.0.0.3:7700"), obs.L("change", "eject")).Add(1)
	return r
}

func TestRenderFleetPanel(t *testing.T) {
	fleet := []gateway.BackendStatus{
		{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok", Active: 1, Sessions: 5,
			Shapes: []string{"4x4/b16s/matvec/per-round"}},
		{Addr: "10.0.0.2:7700", Healthy: true, Status: "ok", Sessions: 2},
		{Addr: "10.0.0.3:7700", Healthy: false, Status: "unreachable"},
	}
	out := renderOf(gwRegistry(), fleet)
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

// gwResilienceRegistry extends the gateway registry with the hint-miss
// family a maxgw exports once a hint matched no advertiser.
func gwResilienceRegistry() *obs.Registry {
	r := gwRegistry()
	r.Counter("gw_hint_misses_total", "", obs.L("shape", "9x9/b8s/matvec/per-round")).Add(4)
	return r
}

// TestRenderFleetPanelAggregates: the ejection markers and the
// summed fleet row. The aggregate latency is load-weighted: backend .1
// carries 3 of the 4 in-flight sessions at 10ms, backend .2 one at
// 50ms → (3·10+1·50)/4 = 20ms, not the 30ms plain mean.
func TestRenderFleetPanelAggregates(t *testing.T) {
	fleet := []gateway.BackendStatus{
		{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok", Active: 3, LatencyEWMAMs: 10},
		{Addr: "10.0.0.2:7700", Healthy: true, Status: "ok", Active: 1, LatencyEWMAMs: 50, Ejected: true},
		{Addr: "10.0.0.3:7700", Healthy: false, Status: "unreachable"},
	}
	out := renderOf(gwResilienceRegistry(), fleet)
	for _, want := range []string{
		"hint misses 4",
		"unreachable (ejected)",
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

// TestRenderFleetPanelOldGateway: a gateway without the hint-miss
// family and without latency fields on /fleetz renders dashes, not
// zeros, and no hint-miss figure.
func TestRenderFleetPanelOldGateway(t *testing.T) {
	out := renderOf(gwRegistry(), []gateway.BackendStatus{{Addr: "10.0.0.1:7700", Healthy: true, Status: "ok"}})
	if !strings.Contains(out, "—") {
		t.Fatalf("missing latency rendered as something other than a dash:\n%s", out)
	}
	if strings.Contains(out, "hint misses") {
		t.Fatalf("hint misses rendered without the metric:\n%s", out)
	}
}

// TestRenderNoFleetPanel: a plain maxd scrape must not grow the fleet
// panel.
func TestRenderNoFleetPanel(t *testing.T) {
	if out := renderOf(maxdRegistry(), nil); strings.Contains(out, "fleet") {
		t.Fatalf("fleet panel rendered from a maxd scrape:\n%s", out)
	}
}

// TestWatchFetchesFleetz: a maxgw-shaped daemon gets its /fleetz
// scraped and the backend table rendered.
func TestWatchFetchesFleetz(t *testing.T) {
	mux := fakeDaemon(gwRegistry())
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"backends":[{"addr":"10.0.0.1:7700","healthy":true,"status":"ok","sessions_total":5}]}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var sb strings.Builder
	if err := watch(&sb, srv.URL+"/histz", time.Millisecond, 1, false); err != nil {
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

// hang answers nothing until the client gives up.
func hang(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() }

// TestWatchScrapeTimesOut: a -once render against a daemon that
// accepts the connection and never answers returns an error instead of
// blocking.
func TestWatchScrapeTimesOut(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(hang))
	defer srv.Close()
	done := make(chan error, 1)
	go func() { done <- watch(&strings.Builder{}, srv.URL+"/histz", time.Millisecond, 1, false) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a daemon that never answered rendered a snapshot")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch still blocked on a daemon that never answers")
	}
}

// TestWatchFleetzTimesOut: a gateway whose /fleetz never answers costs
// the frame its fleet table, not the view.
func TestWatchFleetzTimesOut(t *testing.T) {
	t.Parallel()
	mux := fakeDaemon(gwRegistry())
	mux.HandleFunc("/fleetz", hang)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var sb strings.Builder
	if err := watch(&sb, srv.URL+"/histz", time.Millisecond, 1, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "per-backend") {
		t.Fatalf("fleet table rendered without a /fleetz answer:\n%s", sb.String())
	}
}

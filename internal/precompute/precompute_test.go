package precompute

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
)

func testShape(rows, cols int) Shape {
	return Shape{Rows: rows, Cols: cols, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Sim.Width == 0 {
		cfg.Sim = maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPrefillAndTake(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg})
	s := testShape(2, 3)
	if err := e.Prefill(s, 2); err != nil {
		t.Fatal(err)
	}
	if d := e.Depth(s); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	if v := reg.Gauge("precompute_pool_depth", "", obs.L("shape", s.String())).Value(); v != 2 {
		t.Fatalf("depth gauge = %d, want 2", v)
	}
	ent := e.Take(s)
	if ent == nil {
		t.Fatal("Take missed on a warm pool")
	}
	if ent.Shape() != s {
		t.Fatalf("entry shape %v, want %v", ent.Shape(), s)
	}
	runs, err := ent.Bind([][]int64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || len(runs[0].Rounds) != 3 {
		t.Fatalf("bound runs %dx%d, want 2x3", len(runs), len(runs[0].Rounds))
	}
	if v := reg.Counter("precompute_hits_total", "", obs.L("shape", s.String())).Value(); v != 1 {
		t.Fatalf("hits = %d, want 1", v)
	}
	if d := e.Depth(s); d != 1 {
		t.Fatalf("depth after take = %d, want 1", d)
	}
}

func TestUnpoolableShapesRejected(t *testing.T) {
	e := testEngine(t, Config{})
	for _, s := range []Shape{
		{Rows: 1, Cols: 2, Width: 8, Signed: true, Mode: "serial", OT: "per-round"},
		{Rows: 1, Cols: 2, Width: 8, Signed: true, Mode: "matvec", OT: "correlated"},
		{Rows: 0, Cols: 2, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"},
		{Rows: 1, Cols: 2, Width: 16, Signed: true, Mode: "matvec", OT: "per-round"}, // wrong width for engine
		{Rows: 1, Cols: 2, Width: 8, Signed: false, Mode: "matvec", OT: "per-round"}, // wrong signedness
	} {
		if e.Admit(s) {
			t.Fatalf("shape %s admitted", s)
		}
		if ent := e.Take(s); ent != nil {
			t.Fatalf("shape %s served from pool", s)
		}
		if err := e.Prefill(s, 1); err == nil {
			t.Fatalf("shape %s prefilled", s)
		}
	}
}

// TestEngineHoldsOneShape: the first Admit or Prefill fixes the engine's
// shape; every other shape is refused and misses without touching the
// pool, and nothing is learned from a Take.
func TestEngineHoldsOneShape(t *testing.T) {
	first, second := testShape(2, 3), testShape(1, 2)
	depthGauge := func(reg *obs.Registry, s Shape) int64 {
		return reg.Gauge("precompute_pool_depth", "", obs.L("shape", s.String())).Value()
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, e *Engine, reg *obs.Registry)
	}{
		{"second shape is refused and leaves the pool alone", func(t *testing.T, e *Engine, reg *obs.Registry) {
			if err := e.Prefill(first, 2); err != nil {
				t.Fatal(err)
			}
			if e.Admit(second) {
				t.Fatal("second shape admitted")
			}
			if err := e.Prefill(second, 1); err == nil {
				t.Fatal("second shape prefilled")
			}
			if ent := e.Take(second); ent != nil {
				t.Fatalf("Take(%s) served an entry of shape %s", second, ent.Shape())
			}
			if hits, misses := e.PoolStats(); hits != 0 || misses != 1 {
				t.Fatalf("PoolStats = %d hits, %d misses; want 0, 1", hits, misses)
			}
			if d := e.Depth(second); d != 0 {
				t.Fatalf("second shape depth = %d, want 0", d)
			}
			if d, g := e.Depth(first), depthGauge(reg, first); d != 2 || g != 2 {
				t.Fatalf("admitted pool disturbed: depth %d, gauge %d, want 2, 2", d, g)
			}
			if v := reg.Counter("precompute_misses_total", "", obs.L("shape", first.String())).Value(); v != 0 {
				t.Fatalf("admitted shape charged %d misses for foreign traffic", v)
			}
			var buf strings.Builder
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(buf.String(), second.String()) {
				t.Fatalf("refused shape %s has metrics:\n%s", second, buf.String())
			}
			for i := 0; i < 2; i++ {
				if ent := e.Take(first); ent == nil || ent.Shape() != first {
					t.Fatalf("take %d of the admitted shape: %v", i, ent)
				}
			}
		}},
		{"Take before any Admit is a miss that admits nothing", func(t *testing.T, e *Engine, reg *obs.Registry) {
			e.Start()
			if ent := e.Take(first); ent != nil {
				t.Fatal("empty engine served an entry")
			}
			if _, misses := e.PoolStats(); misses != 1 {
				t.Fatalf("misses = %d, want 1", misses)
			}
			// Were first learned from the miss, second would be refused.
			if !e.Admit(second) {
				t.Fatal("shape refused after a miss of another shape: the miss admitted it")
			}
			waitFor(t, "background refill", func() bool { return e.Depth(second) >= 1 })
			if d := e.Depth(first); d != 0 {
				t.Fatalf("missed shape has depth %d", d)
			}
		}},
		{"re-Admit of the admitted shape is idempotent", func(t *testing.T, e *Engine, reg *obs.Registry) {
			if !e.Admit(first) {
				t.Fatal("first Admit refused")
			}
			if err := e.Prefill(first, 1); err != nil {
				t.Fatal(err)
			}
			if !e.Admit(first) {
				t.Fatal("re-Admit refused")
			}
			if d, g := e.Depth(first), depthGauge(reg, first); d != 1 || g != 1 {
				t.Fatalf("re-Admit disturbed the pool: depth %d, gauge %d, want 1, 1", d, g)
			}
		}},
		{"Stop zeroes the depth gauge", func(t *testing.T, e *Engine, reg *obs.Registry) {
			if err := e.Prefill(first, 2); err != nil {
				t.Fatal(err)
			}
			e.Stop()
			if d, g := e.Depth(first), depthGauge(reg, first); d != 0 || g != 0 {
				t.Fatalf("after Stop: depth %d, gauge %d, want 0, 0", d, g)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.run(t, testEngine(t, Config{Metrics: reg, PoolSize: 1}), reg)
		})
	}
}

// TestStopDrainsGauges: shutdown must leave no phantom pool capacity in
// a final metrics snapshot.
func TestStopDrainsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg, PoolSize: 2})
	e.Start()
	s := testShape(2, 2)
	if err := e.Prefill(s, 2); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if v := reg.Gauge("precompute_pool_depth", "", obs.L("shape", s.String())).Value(); v != 0 {
		t.Fatalf("depth gauge after Stop = %d, want 0", v)
	}
	if v := reg.Gauge("precompute_refill_busy", "").Value(); v != 0 {
		t.Fatalf("busy gauge after Stop = %d, want 0", v)
	}
	if ent := e.Take(s); ent != nil {
		t.Fatal("Take served from a stopped engine")
	}
	if e.Admit(s) {
		t.Fatal("Admit accepted on a stopped engine")
	}
	e.Stop() // idempotent
}

// TestRefillPanicContained: a panic inside a refill worker is counted,
// the busy gauge returns to zero, and the worker keeps filling — the
// PR-4 recover-don't-fail pattern applied to the offline path.
func TestRefillPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg, PoolSize: 1})
	s := testShape(1, 1)
	var mu sync.Mutex
	fired := false
	buildTestHook = func(Shape) {
		mu.Lock()
		defer mu.Unlock()
		if !fired {
			fired = true
			panic("injected refill fault")
		}
	}
	defer func() { buildTestHook = nil }()
	e.Admit(s)
	e.Start()
	waitFor(t, "refill after recovered panic", func() bool { return e.Depth(s) >= 1 })
	if v := reg.Counter("panics_recovered_total", "").Value(); v != 1 {
		t.Fatalf("panics_recovered_total = %d, want 1", v)
	}
	if v := reg.Gauge("precompute_refill_busy", "").Value(); v != 0 {
		t.Fatalf("busy gauge = %d, want 0 after recovered panic", v)
	}
	// Stop before the deferred hook reset: workers must not read the
	// hook concurrently with the write that clears it.
	e.Stop()
}

// TestRefillBacksOffAfterFailedBuild: a build that fails every time is
// retried on the next wake or after refillRetry, not in a tight loop.
func TestRefillBacksOffAfterFailedBuild(t *testing.T) {
	reg := obs.NewRegistry()
	e := testEngine(t, Config{Metrics: reg, PoolSize: 1})
	var attempts atomic.Int64
	buildTestHook = func(Shape) {
		attempts.Add(1)
		panic("injected refill fault")
	}
	defer func() { buildTestHook = nil }()
	e.Admit(testShape(1, 1))
	e.Start()
	time.Sleep(300 * time.Millisecond)
	// One attempt at Start, one for the wake Admit left pending.
	if n := attempts.Load(); n < 1 || n > 3 {
		t.Fatalf("%d build attempts in 300ms, want 1..3", n)
	}
	if v := reg.Gauge("precompute_refill_busy", "").Value(); v != 0 {
		t.Fatalf("busy gauge = %d, want 0 between attempts", v)
	}
	t0 := time.Now()
	e.Stop() // before the deferred hook reset, as above
	if d := time.Since(t0); d > refillRetry/2 {
		t.Fatalf("Stop took %v: it waited out the retry delay", d)
	}
}

// TestEntrySingleUseRaced: racing consumers on one entry — exactly one
// Bind wins, every loser sees ErrConsumed. Run under -race in tier-1.
func TestEntrySingleUseRaced(t *testing.T) {
	e := testEngine(t, Config{})
	s := testShape(1, 2)
	if err := e.Prefill(s, 1); err != nil {
		t.Fatal(err)
	}
	ent := e.Take(s)
	if ent == nil {
		t.Fatal("warm pool missed")
	}
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs, err := ent.Bind([][]int64{{1, 2}})
			switch {
			case err == nil && len(runs) == 1:
				wins <- 1
			case errors.Is(err, ErrConsumed):
			default:
				t.Errorf("unexpected bind outcome: %v", err)
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d binds succeeded, want exactly 1", n)
	}
}

// TestTakeNeverServesSameEntryTwice: concurrent Takes on a warm pool
// return distinct entries; the pool never double-serves.
func TestTakeNeverServesSameEntryTwice(t *testing.T) {
	e := testEngine(t, Config{PoolSize: 4})
	s := testShape(1, 1)
	const entries = 4
	if err := e.Prefill(s, entries); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make(chan *Entry, entries*2)
	for i := 0; i < entries*2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ent := e.Take(s); ent != nil {
				got <- ent
			}
		}()
	}
	wg.Wait()
	close(got)
	seen := map[*Entry]bool{}
	for ent := range got {
		if seen[ent] {
			t.Fatal("same entry served twice")
		}
		seen[ent] = true
	}
	if len(seen) != entries {
		t.Fatalf("%d entries served, want %d", len(seen), entries)
	}
}

func TestNilEngineIsNoOp(t *testing.T) {
	var e *Engine
	s := testShape(1, 1)
	if e.Take(s) != nil || e.Admit(s) || e.Depth(s) != 0 {
		t.Fatal("nil engine not a no-op")
	}
	e.Start()
	e.Stop()
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Sim: maxsim.Config{Width: 7}}); err == nil {
		t.Fatal("invalid simulator config accepted")
	}
	if _, err := New(Config{Sim: maxsim.Config{Width: 8}, PoolSize: -1}); err == nil {
		t.Fatal("negative pool size accepted")
	}
}

func TestShapeString(t *testing.T) {
	s := Shape{Rows: 16, Cols: 16, Width: 16, Signed: true, Mode: "matvec", OT: "per-round"}
	if got, want := s.String(), "16x16/b16s/matvec/per-round"; got != want {
		t.Fatalf("shape string %q, want %q", got, want)
	}
}

// TestPoolStatsCountsTakeOutcomes: the engine-local hit/miss snapshot
// works without any Metrics attached — what lets a benchmark or a test
// assert that every warm request hit.
func TestPoolStatsCountsTakeOutcomes(t *testing.T) {
	e := testEngine(t, Config{}) // no Metrics: obs counters are no-ops
	s := testShape(1, 2)
	if ent := e.Take(s); ent != nil {
		t.Fatal("cold pool returned an entry")
	}
	if err := e.Prefill(s, 2); err != nil {
		t.Fatal(err)
	}
	if ent := e.Take(s); ent == nil {
		t.Fatal("warm pool missed")
	}
	hits, misses := e.PoolStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("PoolStats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	var nilEngine *Engine
	if h, m := nilEngine.PoolStats(); h != 0 || m != 0 {
		t.Fatalf("nil engine PoolStats = %d, %d", h, m)
	}
}

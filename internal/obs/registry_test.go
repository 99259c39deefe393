package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tables_total", "tables")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("tables_total", "tables") != c {
		t.Fatal("counter not deduplicated")
	}
	g := r.Gauge("active", "active")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
}

func TestPhaseTimeoutsCounter(t *testing.T) {
	r := NewRegistry()
	r.PhaseTimeouts("rounds").Inc()
	r.PhaseTimeouts("rounds").Inc()
	r.PhaseTimeouts("handshake").Inc()
	if got := r.PhaseTimeouts("rounds").Value(); got != 2 {
		t.Fatalf("rounds timeouts = %d", got)
	}
	if got := r.PhaseTimeouts("handshake").Value(); got != 1 {
		t.Fatalf("handshake timeouts = %d", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `phase_timeouts_total{phase="rounds"} 2`) {
		t.Fatalf("exposition missing phase timeouts:\n%s", sb.String())
	}
	// Nil-safe like every other metric accessor.
	var nilReg *Registry
	nilReg.PhaseTimeouts("rounds").Inc()
}

func TestLabelledCountersAreDistinct(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter("core_idle_slots_total", "idle", L("core", "0"))
	c1 := r.Counter("core_idle_slots_total", "idle", L("core", "1"))
	if c0 == c1 {
		t.Fatal("different labels share an instance")
	}
	c0.Add(5)
	c1.Add(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`core_idle_slots_total{core="0"} 5`,
		`core_idle_slots_total{core="1"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	// Binary-exact samples so the sum assertion is not at the mercy of
	// float rounding.
	h := r.Histogram("session_seconds", "session latency", []float64{0.25, 1, 8})
	for _, v := range []float64{0.125, 0.25, 0.5, 4, 64} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 68.875 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative le buckets: 0.125 and 0.25 fall in le=0.25; 0.5 adds
	// to le=1; 4 adds to le=8; 64 only reaches +Inf.
	for _, want := range []string{
		"# TYPE session_seconds histogram",
		`session_seconds_bucket{le="0.25"} 2`,
		`session_seconds_bucket{le="1"} 3`,
		`session_seconds_bucket{le="8"} 4`,
		`session_seconds_bucket{le="+Inf"} 5`,
		"session_seconds_sum 68.875",
		"session_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionSortedWithHelpAndType(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last")
	r.Counter("aa_total", "first").Add(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# HELP aa_total first") ||
		!strings.Contains(out, "# TYPE aa_total counter") {
		t.Fatalf("missing HELP/TYPE:\n%s", out)
	}
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := r.Gauge("b", "")
	g.Set(1)
	g.Add(1)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge held a value")
	}
	h := r.Histogram("c", "", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram held samples")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var o *Obs
	if o.Metrics() != nil || o.Traces() != nil {
		t.Fatal("nil Obs returned non-nil components")
	}
}

// TestConcurrentIncrements is the ISSUE's required concurrent race
// test: hammer one counter, one gauge and one histogram from many
// goroutines (run under -race) and check the totals are exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Exercise create-or-get concurrently too.
			c := r.Counter("hits_total", "hits")
			g := r.Gauge("depth", "depth")
			h := r.Histogram("lat_seconds", "lat", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(int64(i))
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_seconds", "lat", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_seconds", "lat", nil).Sum(); got != 0.25*workers*perWorker {
		t.Fatalf("histogram sum = %v", got)
	}
}

// TestNearestRank pins the nearest-rank percentile math with a table
// over known samples, including the n=1 and rank-equals-n edge cases
// the load reports depend on.
func TestNearestRank(t *testing.T) {
	upTo := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      int
		want   float64
	}{
		{"empty", nil, 50, 0},
		// n=1: every percentile is the single sample.
		{"n=1 p1", []float64{7}, 1, 7},
		{"n=1 p50", []float64{7}, 50, 7},
		{"n=1 p99", []float64{7}, 99, 7},
		{"n=1 p100", []float64{7}, 100, 7},
		// n=4: ceil(p*n/100) ranks.
		{"n=4 p1", []float64{10, 20, 30, 40}, 1, 10},
		{"n=4 p25", []float64{10, 20, 30, 40}, 25, 10},
		{"n=4 p50", []float64{10, 20, 30, 40}, 50, 20},
		{"n=4 p51", []float64{10, 20, 30, 40}, 51, 30},
		{"n=4 p75", []float64{10, 20, 30, 40}, 75, 30},
		{"n=4 p95", []float64{10, 20, 30, 40}, 95, 40},
		{"n=4 p99", []float64{10, 20, 30, 40}, 99, 40},
		// rank equals n exactly (p*n/100 integral at the top).
		{"n=4 p100", []float64{10, 20, 30, 40}, 100, 40},
		{"n=100 p50", upTo(100), 50, 50},
		{"n=100 p99", upTo(100), 99, 99},
		{"n=100 p100", upTo(100), 100, 100},
		// p=0 clamps to the first sample rather than indexing below it.
		{"p0 clamps", []float64{10, 20}, 0, 10},
	} {
		if got := NearestRank(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: NearestRank(p=%d) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

package capmodel

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"maxelerator/internal/load"
	"maxelerator/internal/obs"
)

func testScenario() load.Scenario {
	return load.Scenario{
		Rate: 40, Process: load.Poisson, DurationSec: 10, Seed: 11,
		MaxInflight: 64,
		Shape:       load.Shape{Rows: 4, Cols: 4, Width: 8},
	}
}

func constCal(warm, cold, ot float64) *Calibration {
	return &Calibration{Source: "test", OTSetup: Const(ot),
		RequestWarm: Const(warm), RequestCold: Const(cold), Refill: Const(cold)}
}

// The acceptance criterion verbatim: same seed + calibration →
// byte-identical report.
func TestSimulateDeterministic(t *testing.T) {
	sc := testScenario()
	cal, err := Analytic(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	fl := Fleet{Backends: 2, MaxSessions: 8, AdmissionWaitSec: 0.5, CPUs: 2, PoolDepth: 2, WarmStart: true}
	a, err := Simulate(sc, fl, cal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sc, fl, cal)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same inputs produced different reports:\n%s\nvs\n%s", ja, jb)
	}
	sc.Seed = 12
	c, err := Simulate(sc, fl, cal)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical reports")
	}
}

// An uncontended fleet completes everything at the service-time floor.
func TestSimulateUncontended(t *testing.T) {
	sc := testScenario()
	sc.Rate, sc.Process = 5, load.Uniform
	cal := constCal(0.010, 0.050, 0.002)
	r, err := Simulate(sc, Fleet{CPUs: 64}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded != r.Offered || r.Shed != 0 || r.Skipped != 0 {
		t.Fatalf("uncontended run dropped work: %+v", r.Report)
	}
	// No pool: every request pays cold + OT setup = 52 ms.
	if got := r.Latency.P50Ms; got < 51.9 || got > 52.1 {
		t.Errorf("p50 = %v ms, want 52", got)
	}
}

// Offered load far past one CPU's capacity must shed (with admission
// control) and must not report sub-capacity latency.
func TestSimulateOverloadSheds(t *testing.T) {
	sc := testScenario()
	sc.Rate, sc.DurationSec = 100, 5 // cold service 50ms ⇒ capacity ≈ 20/s
	cal := constCal(0.050, 0.050, 0)
	fl := Fleet{MaxSessions: 4, AdmissionWaitSec: 0.2, CPUs: 1}
	r, err := Simulate(sc, fl, cal)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatalf("5x overload shed nothing: %+v", r.Report)
	}
	if r.AchievedRate > 25 {
		t.Errorf("achieved %v/s exceeds the 20/s service capacity", r.AchievedRate)
	}
	// Without a session cap the queue grows instead: nothing sheds, but
	// latency blows up.
	open, err := Simulate(sc, Fleet{CPUs: 1}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if open.Shed != 0 {
		t.Errorf("uncapped fleet shed %d", open.Shed)
	}
	if open.Latency.P99Ms < r.Latency.P99Ms {
		t.Errorf("uncapped overload p99 %v ms below capped %v ms — queueing not modelled",
			open.Latency.P99Ms, r.Latency.P99Ms)
	}
}

// One simulated backend's admission against the real one's semantics
// (internal/backend): a full MaxSessions queues arrivals in order; the
// queue wait sheds them only when AdmissionWaitSec is positive — at 0 a
// session waits as long as it takes.
func TestAdmitQueueWait(t *testing.T) {
	for _, tc := range []struct {
		name      string
		waitSec   float64
		wantOrder []int // sessions admitted, in admission order
		wantShed  int
	}{
		{"bounded wait sheds the queue", 0.5, []int{0}, 3},
		{"wait 0 queues without bound", 0, []int{0, 1, 2, 3}, 0},
	} {
		s := &sim{}
		b := newBackend(s, Fleet{MaxSessions: 1, AdmissionWaitSec: tc.waitSec, CPUs: 1})
		var order []int
		shed := 0
		for i := 0; i < 4; i++ {
			b.admit(float64(i)/100, func(float64) { order = append(order, i) }, func(float64) { shed++ })
		}
		// Session 0 holds the only slot past every shed deadline, then
		// each admitted session releases in turn.
		s.drain()
		for range tc.wantOrder {
			b.release(10)
		}
		if !reflect.DeepEqual(order, tc.wantOrder) || shed != tc.wantShed {
			t.Errorf("%s: admitted %v shed %d, want %v shed %d", tc.name, order, shed, tc.wantOrder, tc.wantShed)
		}
	}
}

// Warm pools must hit until consumption outruns refill.
func TestSimulatePoolHitRate(t *testing.T) {
	sc := testScenario()
	sc.Rate, sc.Process = 2, load.Uniform // slow: refill keeps up
	cal := constCal(0.001, 0.200, 0)      // refill = cold = 200 ms
	warm, err := Simulate(sc, Fleet{CPUs: 4, PoolDepth: 4, WarmStart: true}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pool == nil || warm.Pool.HitRate < 0.9 {
		t.Fatalf("slow traffic on a warm pool should hit nearly always: %+v", warm.Pool)
	}
	// Cold start at high rate: the first requests must miss.
	sc.Rate = 50
	cold, err := Simulate(sc, Fleet{CPUs: 4, PoolDepth: 2, WarmStart: false}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pool == nil || cold.Pool.HitRate > 0.5 {
		t.Fatalf("cold start under pressure should mostly miss: %+v", cold.Pool)
	}
	if warm.Latency.P50Ms >= cold.Latency.P50Ms {
		t.Errorf("warm p50 %v ms not below cold p50 %v ms", warm.Latency.P50Ms, cold.Latency.P50Ms)
	}
}

// The client-side inflight cap mirrors the generator: arrivals past it
// are skipped, not queued.
func TestSimulateInflightCapSkips(t *testing.T) {
	sc := testScenario()
	sc.Rate, sc.MaxInflight, sc.DurationSec = 200, 2, 3
	cal := constCal(0.5, 0.5, 0)
	r, err := Simulate(sc, Fleet{CPUs: 64}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if r.Skipped == 0 {
		t.Fatalf("2-slot client under 200/s offered load skipped nothing: %+v", r.Report)
	}
	if r.Started+r.Skipped != r.Offered {
		t.Errorf("started %d + skipped %d ≠ offered %d", r.Started, r.Skipped, r.Offered)
	}
}

// More backends must never lower the sustainable rate.
func TestSustainableQPSMonotoneInBackends(t *testing.T) {
	sc := testScenario()
	cal := constCal(0.020, 0.040, 0.005)
	slo := SLO{P99Ms: 200}
	var prev float64
	for _, nb := range []int{1, 2, 4} {
		qps, err := SustainableQPS(sc, Fleet{Backends: nb, CPUs: 1, MaxSessions: 8, AdmissionWaitSec: 0.2}, cal, slo, 1, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if qps < prev {
			t.Fatalf("backends=%d sustains %v/s, below %v/s with fewer", nb, qps, prev)
		}
		if qps <= 0 {
			t.Fatalf("backends=%d sustains nothing", nb)
		}
		prev = qps
	}
}

func TestEmpiricalDist(t *testing.T) {
	// Sum chosen so the measured mean equals the uniform-placement
	// expectation (10·5ms + 80·15ms + 10·30ms = 1.55s): scale is 1 and
	// samples stay exactly on the bucket support.
	h := obs.HistogramSnapshot{
		Name:   "request_seconds",
		Bounds: []float64{0.01, 0.02, 0.04},
		Counts: []uint64{10, 80, 10, 0},
		Count:  100,
		Sum:    1.55,
	}
	d, err := NewEmpirical(h)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 0.0155 {
		t.Errorf("mean = %v, want 0.0155", d.Mean())
	}
	rng := rand.New(rand.NewSource(1))
	mid := 0
	for i := 0; i < 10000; i++ {
		v := d.Sample(rng)
		if v < 0 || v > 0.04 {
			t.Fatalf("sample %v outside bucket support", v)
		}
		if v >= 0.01 && v < 0.02 {
			mid++
		}
	}
	if frac := float64(mid) / 10000; frac < 0.75 || frac > 0.85 {
		t.Errorf("middle bucket drew %.3f, want ≈0.80", frac)
	}
	// The +Inf bucket clamps to the last finite bound.
	inf := obs.HistogramSnapshot{Bounds: []float64{0.01}, Counts: []uint64{0, 5}, Count: 5, Sum: 1}
	di, err := NewEmpirical(inf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v := di.Sample(rng); v != 0.01 {
			t.Fatalf("+Inf bucket sample %v, want clamp to 0.01", v)
		}
	}
	if _, err := NewEmpirical(obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{0, 0}}); err == nil {
		t.Error("empty histogram accepted")
	}
}

// Moment matching: when the true mass sits at the bottom of a coarse
// bucket, the sampler must rescale toward the measured mean instead of
// spreading uniformly across the bucket.
func TestEmpiricalMomentMatch(t *testing.T) {
	// All 100 samples in the (10, 30] bucket, true mean 11s — uniform
	// placement would imply 20s.
	h := obs.HistogramSnapshot{
		Name:   "ot_setup_seconds",
		Bounds: []float64{10, 30},
		Counts: []uint64{0, 100, 0},
		Count:  100,
		Sum:    1100,
	}
	d, err := NewEmpirical(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v > 30 {
			t.Fatalf("sample %v above the bucket support", v)
		}
		sum += v
	}
	if got := sum / n; got < 10.5 || got > 11.5 {
		t.Errorf("sample mean %v, want ≈11 (moment-matched)", got)
	}
}

func TestAnalyticCalibration(t *testing.T) {
	cal, err := Analytic(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cal.RequestWarm.Mean() <= 0 || cal.RequestCold.Mean() <= cal.RequestWarm.Mean() {
		t.Errorf("cold %v must exceed warm %v > 0", cal.RequestCold.Mean(), cal.RequestWarm.Mean())
	}
	// Bigger shapes cost more.
	big, err := Analytic(16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.RequestCold.Mean() <= cal.RequestCold.Mean() {
		t.Error("16x16 not costlier than 4x4")
	}
	if _, err := Analytic(4, 4, 7); err == nil {
		t.Error("non-power-of-two width accepted")
	}
}

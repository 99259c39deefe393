package maxsim

import (
	mrand "math/rand"
	"testing"
	"time"

	"maxelerator/internal/fpga"
	"maxelerator/internal/gc"
	"maxelerator/internal/rng"
)

func sim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 10}); err == nil {
		t.Fatal("non-power-of-two width accepted")
	}
	if _, err := New(Config{Width: 32, MACUnits: 1000}); err == nil {
		t.Fatal("absurd MAC unit count accepted")
	}
	if _, err := New(Config{Width: 8, AccWidth: 8}); err == nil {
		t.Fatal("narrow accumulator accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := sim(t, Config{Width: 8})
	cfg := s.Config()
	if cfg.AccWidth != 16 || cfg.MACUnits != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.Device.Name != fpga.VCU108.Name {
		t.Fatalf("default device = %q", cfg.Device.Name)
	}
	if cfg.Params.Scheme.Name() != "half-gates" {
		t.Fatalf("default scheme = %q", cfg.Params.Scheme.Name())
	}
}

func TestTimePerMACMatchesTable2(t *testing.T) {
	// Table 2 "Time per MAC": 0.12, 0.24, 0.48 µs for b = 8, 16, 32.
	want := map[int]time.Duration{8: 120, 16: 240, 32: 480}
	for b, ns := range want {
		s := sim(t, Config{Width: b})
		if got := s.TimePerMAC(); got != ns*time.Nanosecond {
			t.Fatalf("b=%d: time per MAC = %v, want %vns", b, got, ns)
		}
	}
}

func TestThroughputMatchesTable2(t *testing.T) {
	// Table 2 "Throughput": 8.33e6, 4.17e6, 2.08e6 MAC/s;
	// "Throughput per core": 1.04e6, 2.98e5, 8.68e4.
	cases := []struct {
		b           int
		total, core float64
	}{
		{8, 8.33e6, 1.04e6},
		{16, 4.17e6, 2.98e5},
		{32, 2.08e6, 8.68e4},
	}
	for _, c := range cases {
		s := sim(t, Config{Width: c.b})
		if got := s.ThroughputMACsPerSec(); got < c.total*0.99 || got > c.total*1.01 {
			t.Fatalf("b=%d: throughput %.3g, want ≈%.3g", c.b, got, c.total)
		}
		if got := s.ThroughputPerCoreMACsPerSec(); got < c.core*0.99 || got > c.core*1.01 {
			t.Fatalf("b=%d: per-core %.3g, want ≈%.3g", c.b, got, c.core)
		}
	}
}

func TestGarbleDotProductFunctionalRoundTrip(t *testing.T) {
	s := sim(t, Config{Width: 8, AccWidth: 24, Signed: true})
	rng := mrand.New(mrand.NewSource(1))
	x := make([]int64, 12)
	a := make([]int64, 12)
	var want int64
	for i := range x {
		x[i] = int64(rng.Intn(256) - 128)
		a[i] = int64(rng.Intn(256) - 128)
		want += x[i] * a[i]
	}
	run, err := s.GarbleDotProduct(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateDotProduct(s.Config().Params, s.Circuit(), run, a, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("secure dot product = %d, want %d", got, want)
	}
}

func TestGarbleDotProductUnsigned(t *testing.T) {
	s := sim(t, Config{Width: 8, AccWidth: 20})
	x := []int64{255, 3, 17}
	a := []int64{254, 9, 100}
	run, err := s.GarbleDotProduct(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateDotProduct(s.Config().Params, s.Circuit(), run, a, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(255*254 + 3*9 + 17*100)
	if got != want {
		t.Fatalf("dot product = %d, want %d", got, want)
	}
}

func TestGarbleDotProductRangeChecks(t *testing.T) {
	s := sim(t, Config{Width: 8, Signed: true})
	if _, err := s.GarbleDotProduct([]int64{128}); err == nil {
		t.Fatal("out-of-range signed value accepted")
	}
	if _, err := s.GarbleDotProduct(nil); err == nil {
		t.Fatal("empty vector accepted")
	}
	u := sim(t, Config{Width: 8})
	if _, err := u.GarbleDotProduct([]int64{-1}); err == nil {
		t.Fatal("negative unsigned value accepted")
	}
	run, err := u.GarbleDotProduct([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateDotProduct(u.Config().Params, u.Circuit(), run, []int64{1}, 8, false); err == nil {
		t.Fatal("vector length mismatch accepted")
	}
	if _, err := EvaluateDotProduct(u.Config().Params, u.Circuit(), run, []int64{1, 300}, 8, false); err == nil {
		t.Fatal("out-of-range evaluator value accepted")
	}
}

func TestStatsCycleAccounting(t *testing.T) {
	s := sim(t, Config{Width: 8})
	const m = 10
	x := make([]int64, m)
	for i := range x {
		x[i] = int64(i)
	}
	run, err := s.GarbleDotProduct(x)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	sch := s.Schedule()
	if st.MACs != m {
		t.Fatalf("MACs = %d", st.MACs)
	}
	wantCycles := sch.TotalCycles(m)
	if st.Cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d", st.Cycles, wantCycles)
	}
	if st.Stages != wantCycles/3 {
		t.Fatalf("stages = %d", st.Stages)
	}
	if st.TablesScheduled != uint64(sch.TablesPerStage())*st.Stages {
		t.Fatalf("scheduled tables = %d", st.TablesScheduled)
	}
	if st.TablesGarbled == 0 || st.TableBytes != st.TablesGarbled*2*16 {
		t.Fatalf("functional tables = %d bytes = %d", st.TablesGarbled, st.TableBytes)
	}
	if st.CoreUtilization <= 0.9 || st.CoreUtilization > 1 {
		t.Fatalf("utilisation = %v", st.CoreUtilization)
	}
	if st.ModeledTime != s.Config().Device.CyclesToDuration(st.Cycles) {
		t.Fatalf("modelled time = %v", st.ModeledTime)
	}
	if st.PCIeTime <= 0 {
		t.Fatal("PCIe time not modelled")
	}
	if st.RNGBitsDrawn == 0 {
		t.Fatal("RNG accounting missing")
	}
}

func TestB8UtilizationIsFull(t *testing.T) {
	// b=8 has zero idle slots, so steady-state utilisation is 1.
	s := sim(t, Config{Width: 8})
	run, err := s.GarbleDotProduct([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.CoreUtilization != 1 {
		t.Fatalf("b=8 utilisation = %v, want 1", run.Stats.CoreUtilization)
	}
	if run.Stats.IdleSlots != 0 {
		t.Fatalf("b=8 idle slots = %d", run.Stats.IdleSlots)
	}
}

func TestMatMulStatsFormula(t *testing.T) {
	// §4.3: 1 product per 3·M·N·P·b cycles on one MAC unit
	// (steady state; the model adds pipeline fill per element).
	s := sim(t, Config{Width: 8})
	n, m, p := 4, 16, 5
	st, err := s.MatMulStats(n, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.MACs != uint64(n*m*p) {
		t.Fatalf("MACs = %d, want %d", st.MACs, n*m*p)
	}
	steady := uint64(3 * m * n * p * 8)
	if st.Cycles < steady {
		t.Fatalf("cycles %d below steady-state bound %d", st.Cycles, steady)
	}
	// Fill overhead is bounded by latency per element.
	fill := uint64(n*p) * uint64(s.Schedule().LatencyCycles())
	if st.Cycles > steady+fill {
		t.Fatalf("cycles %d exceed steady+fill bound %d", st.Cycles, steady+fill)
	}
}

func TestMatMulStatsParallelScaling(t *testing.T) {
	one := sim(t, Config{Width: 8, MACUnits: 1})
	four := sim(t, Config{Width: 8, MACUnits: 4})
	s1, err := one.MatMulStats(8, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := four.MatMulStats(8, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Cycles*4 != s1.Cycles {
		t.Fatalf("4 units: %d cycles, 1 unit: %d — expected 4× speedup on a divisible workload", s4.Cycles, s1.Cycles)
	}
	if _, err := one.MatMulStats(0, 1, 1); err == nil {
		t.Fatal("degenerate shape accepted")
	}
}

func TestResourcesScaleWithUnits(t *testing.T) {
	s1 := sim(t, Config{Width: 32, MACUnits: 1})
	s2 := sim(t, Config{Width: 32, MACUnits: 2})
	r1, err := s1.Resources()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Resources()
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1.Scale(2) {
		t.Fatalf("resources %+v vs %+v", r1, r2)
	}
}

func TestSchemesInteroperateInSimulator(t *testing.T) {
	for _, scheme := range []gc.Scheme{gc.HalfGates{}, gc.GRR3{}, gc.FourRow{}} {
		p := gc.DefaultParams()
		p.Scheme = scheme
		s := sim(t, Config{Width: 8, Params: p})
		run, err := s.GarbleDotProduct([]int64{5, 7})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateDotProduct(p, s.Circuit(), run, []int64{3, 11}, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != 5*3+7*11 {
			t.Fatalf("%s: dot product = %d", scheme.Name(), got)
		}
	}
}

func TestSimulatorWithROEntropySource(t *testing.T) {
	// The hardware-model entropy source plugs straight in: the
	// simulated ring-oscillator array is an io.Reader.
	s := sim(t, Config{Width: 8, AccWidth: 20, Rand: rng.MustNew(rng.Config{Seed: 9})})
	run, err := s.GarbleDotProduct([]int64{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateDotProduct(s.Config().Params, s.Circuit(), run, []int64{7, 3}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5*7+9*3 {
		t.Fatalf("RO-entropy run = %d", got)
	}
}

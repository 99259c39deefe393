package maxsim

import (
	"strconv"
	"strings"
	"testing"

	"maxelerator/internal/obs"
	"maxelerator/internal/sched"
)

func TestGarbleDotProductRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := sim(t, Config{Width: 16, Signed: true, Metrics: reg})
	run, err := s.GarbleDotProduct([]int64{3, -5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("macs_total", "").Value(); got != 3 {
		t.Fatalf("macs_total = %d", got)
	}
	if got := reg.Counter("cycles_total", "").Value(); got != run.Stats.Cycles {
		t.Fatalf("cycles_total = %d, want %d", got, run.Stats.Cycles)
	}
	if got := reg.Counter("tables_garbled_total", "").Value(); got != run.Stats.TablesGarbled {
		t.Fatalf("tables_garbled_total = %d, want %d", got, run.Stats.TablesGarbled)
	}
	if got := reg.Counter("idle_slots_total", "").Value(); got != run.Stats.IdleSlots {
		t.Fatalf("idle_slots_total = %d, want %d", got, run.Stats.IdleSlots)
	}
	// b=16 has 2 idle slots per stage; the per-core family must sum to
	// the aggregate.
	var perCore uint64
	for i := 0; i < s.Schedule().NumCores(); i++ {
		perCore += reg.Counter("core_idle_slots_total", "", obs.L("core", strconv.Itoa(i))).Value()
	}
	if perCore != run.Stats.IdleSlots {
		t.Fatalf("per-core idle sum %d != aggregate %d", perCore, run.Stats.IdleSlots)
	}
}

func TestTraceRecordsStallMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := sim(t, Config{Width: 8, Metrics: reg})
	res, err := s.Trace(TraceConfig{MACs: 10, DrainBytesPerCycle: 4, MemoryBytesPerCore: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles == 0 {
		t.Fatal("expected a stalling configuration")
	}
	if got := reg.Counter("stall_cycles_total", "").Value(); got != res.StallCycles {
		t.Fatalf("stall_cycles_total = %d, want %d", got, res.StallCycles)
	}
	if got := reg.Counter("trace_cycles_total", "").Value(); got != res.Cycles {
		t.Fatalf("trace_cycles_total = %d, want %d", got, res.Cycles)
	}
	if got := reg.Counter("pcie_drained_bytes_total", "").Value(); got != res.BytesDrained {
		t.Fatalf("pcie_drained_bytes_total = %d, want %d", got, res.BytesDrained)
	}
	if got := reg.Gauge("peak_memory_bytes", "").Value(); got != int64(res.PeakOccupancyBytes) {
		t.Fatalf("peak_memory_bytes = %d, want %d", got, res.PeakOccupancyBytes)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `core_tables_total{core="0"}`) {
		t.Fatalf("per-core table counters missing:\n%s", sb.String())
	}
}

func TestMatMulStatsDoesNotRecord(t *testing.T) {
	// MatMulStats is a what-if query: calling it must not pollute the
	// live counters.
	reg := obs.NewRegistry()
	s := sim(t, Config{Width: 8, Metrics: reg})
	if _, err := s.MatMulStats(4, 4, 2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("macs_total", "").Value(); got != 0 {
		t.Fatalf("MatMulStats recorded %d MACs", got)
	}
}

func TestNilRegistryIsFree(t *testing.T) {
	s := sim(t, Config{Width: 8})
	if _, err := s.GarbleDotProduct([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Trace(TraceConfig{MACs: 2}); err != nil {
		t.Fatal(err)
	}
	// Sanity on construction-time grid accounting.
	var idle uint64
	for _, n := range s.idlePerStage {
		idle += n
	}
	if int(idle) != s.Schedule().IdleSlotsPerStage() {
		t.Fatalf("idlePerStage sum %d != schedule %d", idle, s.Schedule().IdleSlotsPerStage())
	}
	_ = sched.CyclesPerStage
}

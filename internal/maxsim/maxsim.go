// Package maxsim is the cycle-accurate MAXelerator simulator: the
// stand-in for the paper's Virtex UltraSCALE implementation (§5).
//
// The simulator is the accelerator's clock. Clock-cycle accounting
// follows the FSM schedule of package sched exactly — 3 cycles per
// stage, b stages per MAC in steady state, b + log₂(b) + 2 stages of
// pipeline-fill latency, ≤ 2 idle core-slots per stage — at the device
// clock of the modelled FPGA, with the PCIe model draining garbled
// tables. It is an account of the garbling work, not a step in it:
// the work itself is gc.Request's, over the MAC netlist of package
// circuit, and GarbleRows pairs the two so that tests and
// single-process callers get genuine garbled tables a real evaluator
// can evaluate together with their modelled cost.
//
// The two are reconciled in Stats: TablesScheduled counts the FSM's
// slot grid (the paper's bit-serial datapath re-garbles its serial
// adder cells every stage), TablesGarbled counts the functional
// netlist's AND gates. Timing always follows the schedule, which is
// the paper's authoritative cost model.
package maxsim

import (
	"crypto/rand"
	"fmt"
	"io"
	"strconv"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/fpga"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/obs"
	"maxelerator/internal/sched"
)

// Config parameterises one simulated accelerator.
type Config struct {
	// Width is the operand bit-width b (power of two ≥ 4).
	Width int
	// AccWidth is the accumulator width; defaults to 2·Width.
	AccWidth int
	// Signed selects the signed datapath (§4.3). The schedule always
	// provisions the sign slots, as the paper's does.
	Signed bool
	// MACUnits is the number of parallel MAC units instantiated on the
	// fabric. Defaults to 1. Each unit contains sched cores(b) GC
	// cores.
	MACUnits int
	// Device is the modelled FPGA; defaults to the paper's VCU108.
	Device fpga.Device
	// PCIe is the host link model; defaults to fpga.DefaultPCIe.
	PCIe fpga.PCIeLink
	// Params is the garbling configuration; defaults to
	// gc.DefaultParams (half gates over fixed-key AES).
	Params gc.Params
	// Rand supplies every request's 16-byte seed (NewRequest, and the
	// precompute engine's entries); defaults to crypto/rand. Sessions
	// read it concurrently. The hardware's ring-oscillator label
	// generator is modelled separately by LabelGenerator.
	Rand io.Reader
	// Metrics, when non-nil, receives the simulator's hardware-model
	// accounting (cycles, tables, idle slots, stalls, per-core
	// counters) as live counters. Nil disables recording with no
	// overhead on the garbling paths.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.AccWidth == 0 {
		c.AccWidth = 2 * c.Width
	}
	if c.MACUnits == 0 {
		c.MACUnits = 1
	}
	if c.Device.Name == "" {
		c.Device = fpga.VCU108
	}
	if c.PCIe == (fpga.PCIeLink{}) {
		c.PCIe = fpga.DefaultPCIe
	}
	if c.Params.Hash == nil && c.Params.Scheme == nil {
		c.Params = gc.DefaultParams()
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
	return c
}

// Simulator is a configured MAXelerator instance: the resolved Config,
// the FSM schedule, the MAC netlist with its lowered program and the
// metric handles. It is read-only after New and safe for concurrent
// use; every garbling runs on a gc.Request of its own, keyed from a
// fresh seed, so no two requests share labels or Δ, as the paper
// requires.
type Simulator struct {
	cfg      Config
	schedule *sched.Schedule
	macCkt   *circuit.Circuit
	// ands is the MAC's AND count, the tables one round garbles.
	ands uint64
	met  simMetrics
	// idlePerStage[i] is core i's idle slots in one 3-cycle stage,
	// read off the FSM slot grid once at construction.
	idlePerStage []uint64
}

// simMetrics caches the simulator's registry handles so recording is
// one atomic add per field, not a map lookup. Every handle is nil (a
// no-op) when the configuration carries no registry.
type simMetrics struct {
	macs            *obs.Counter
	cycles          *obs.Counter
	stages          *obs.Counter
	tablesGarbled   *obs.Counter
	tablesScheduled *obs.Counter
	tableBytes      *obs.Counter
	idleSlots       *obs.Counter
	rngBits         *obs.Counter
	traceCycles     *obs.Counter
	stallCycles     *obs.Counter
	drainedBytes    *obs.Counter
	coreIdle        []*obs.Counter
	coreTables      []*obs.Counter
	peakMemory      *obs.Gauge
}

func newSimMetrics(reg *obs.Registry, numCores int) simMetrics {
	m := simMetrics{
		macs:            reg.Counter("macs_total", "MAC rounds garbled"),
		cycles:          reg.Counter("cycles_total", "modelled clock cycles on the critical MAC unit"),
		stages:          reg.Counter("stages_total", "modelled 3-cycle FSM stages"),
		tablesGarbled:   reg.Counter("tables_garbled_total", "garbled tables produced by the functional netlist"),
		tablesScheduled: reg.Counter("tables_scheduled_total", "garbled tables implied by the FSM slot grid"),
		tableBytes:      reg.Counter("table_bytes_total", "garbled-table bytes produced"),
		idleSlots:       reg.Counter("idle_slots_total", "idle core-slots over all runs"),
		rngBits:         reg.Counter("rng_bits_total", "label entropy consumed, in bits"),
		traceCycles:     reg.Counter("trace_cycles_total", "clock cycles walked by the memory-system trace"),
		stallCycles:     reg.Counter("stall_cycles_total", "cycles the FSM stalled on full memory blocks"),
		drainedBytes:    reg.Counter("pcie_drained_bytes_total", "bytes drained through the shared output port"),
		peakMemory:      reg.Gauge("peak_memory_bytes", "high-water mark of garbled tables resident in core memory blocks"),
	}
	for i := 0; i < numCores; i++ {
		lbl := obs.L("core", strconv.Itoa(i))
		m.coreIdle = append(m.coreIdle, reg.Counter("core_idle_slots_total", "idle slots per GC core", lbl))
		m.coreTables = append(m.coreTables, reg.Counter("core_tables_total", "tables garbled per GC core (trace runs)", lbl))
	}
	return m
}

// New builds a simulator. It validates that the configured MAC units
// fit the modelled device.
func New(cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	s, err := sched.Build(cfg.Width)
	if err != nil {
		return nil, err
	}
	if cfg.MACUnits < 1 {
		return nil, fmt.Errorf("maxsim: MAC unit count %d must be positive", cfg.MACUnits)
	}
	maxUnits, err := cfg.Device.MaxMACUnits(cfg.Width)
	if err != nil {
		return nil, err
	}
	if cfg.MACUnits > maxUnits {
		return nil, fmt.Errorf("maxsim: %d MAC units of width %d exceed %s capacity of %d",
			cfg.MACUnits, cfg.Width, cfg.Device.Name, maxUnits)
	}
	ckt, err := circuit.MAC(circuit.MACConfig{Width: cfg.Width, AccWidth: cfg.AccWidth, Signed: cfg.Signed})
	if err != nil {
		return nil, err
	}
	sim := &Simulator{cfg: cfg, schedule: s, macCkt: ckt, ands: uint64(ckt.Stats().ANDs)}
	sim.met = newSimMetrics(cfg.Metrics, s.NumCores())
	sim.idlePerStage = make([]uint64, len(s.Cores))
	for i, core := range s.Cores {
		for _, slot := range core.Slots {
			if slot.Kind == sched.Idle {
				sim.idlePerStage[i]++
			}
		}
	}
	return sim, nil
}

// WithMetrics returns a copy of s that records its hardware accounting
// into reg (nil disables recording).
func (s *Simulator) WithMetrics(reg *obs.Registry) *Simulator {
	f := *s
	f.cfg.Metrics = reg
	f.met = newSimMetrics(reg, s.schedule.NumCores())
	return &f
}

// Schedule exposes the FSM schedule driving the timing model.
func (s *Simulator) Schedule() *sched.Schedule { return s.schedule }

// Circuit exposes the sequential MAC netlist being garbled.
func (s *Simulator) Circuit() *circuit.Circuit { return s.macCkt }

// Config returns the resolved configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Resources returns the modelled fabric cost of the instantiated MAC
// units.
func (s *Simulator) Resources() (fpga.Resources, error) {
	r, err := fpga.MACUnitResources(s.cfg.Width)
	if err != nil {
		return fpga.Resources{}, err
	}
	return r.Scale(s.cfg.MACUnits), nil
}

// Stats aggregates the hardware-model accounting of a run.
type Stats struct {
	// MACs is the number of MAC rounds garbled.
	MACs uint64
	// Cycles is the modelled clock-cycle count on the critical MAC
	// unit, including pipeline fill.
	Cycles uint64
	// Stages is Cycles / 3.
	Stages uint64
	// TablesScheduled is the garbled-table count implied by the FSM
	// slot grid (the paper's datapath cost).
	TablesScheduled uint64
	// TablesGarbled is the number of tables the functional netlist
	// produced.
	TablesGarbled uint64
	// TableBytes is the functional garbled-table volume.
	TableBytes uint64
	// IdleSlots is the total idle core-slots over the run.
	IdleSlots uint64
	// CoreUtilization is 1 − idle fraction of the steady-state grid.
	CoreUtilization float64
	// RNGBitsDrawn is the label entropy consumed, in bits.
	RNGBitsDrawn uint64
	// ModeledTime is Cycles at the device clock.
	ModeledTime time.Duration
	// PCIeTime is the modelled host-transfer time for TableBytes.
	PCIeTime time.Duration
}

// Add accumulates another run's accounting into s: every count and
// time sums; CoreUtilization, a ratio of the schedule, is left as it is.
func (s *Stats) Add(o Stats) {
	s.MACs += o.MACs
	s.Cycles += o.Cycles
	s.Stages += o.Stages
	s.TablesScheduled += o.TablesScheduled
	s.TablesGarbled += o.TablesGarbled
	s.TableBytes += o.TableBytes
	s.IdleSlots += o.IdleSlots
	s.RNGBitsDrawn += o.RNGBitsDrawn
	s.ModeledTime += o.ModeledTime
	s.PCIeTime += o.PCIeTime
}

// ThroughputMACsPerSec is the steady-state modelled throughput of the
// whole accelerator (all MAC units).
func (s *Simulator) ThroughputMACsPerSec() float64 {
	perUnit := s.cfg.Device.MaxClockMHz * 1e6 / float64(s.schedule.CyclesPerMAC())
	return perUnit * float64(s.cfg.MACUnits)
}

// ThroughputPerCoreMACsPerSec is Table 2's "Throughput per core"
// metric: accelerator throughput divided by total GC cores.
func (s *Simulator) ThroughputPerCoreMACsPerSec() float64 {
	return s.ThroughputMACsPerSec() / float64(s.schedule.NumCores()*s.cfg.MACUnits)
}

// TimePerMAC is Table 2's "Time per MAC" row for one MAC unit.
func (s *Simulator) TimePerMAC() time.Duration {
	return s.cfg.Device.CyclesToDuration(uint64(s.schedule.CyclesPerMAC()))
}

// DotProductRun is the garbler-side result of streaming one dot
// product (M sequential MAC rounds) through the accelerator.
type DotProductRun struct {
	// Rounds holds the per-round garbled material, in order.
	Rounds []*gc.Garbled
	// OutputPairs are the final-round accumulator output label pairs.
	OutputPairs []label.Pair
	// Stats is the hardware-model accounting.
	Stats Stats
}

// GarbleDotProduct garbles the M-round sequential MAC for the
// garbler-held vector x, producing evaluable material for a client
// vector of the same length: a one-row request keyed from Config.Rand.
// Timing is accounted on one MAC unit (a single dot product cannot be
// split across units — rounds are sequentially dependent through the
// accumulator).
func (s *Simulator) GarbleDotProduct(x []int64) (*DotProductRun, error) {
	req, err := s.NewRequest(len(x))
	if err != nil {
		return nil, err
	}
	runs, err := s.GarbleRows(req, [][]int64{x})
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// GarbleRows garbles A's rows as rows 0, 1, … of req, on one lane. Every
// row's run carries Account(Cols), which the hardware counters record
// as the row is garbled.
func (s *Simulator) GarbleRows(req *gc.Request, A [][]int64) ([]*DotProductRun, error) {
	lane := req.Lane()
	runs := make([]*DotProductRun, len(A))
	for i, row := range A {
		for round, xi := range row {
			if err := circuit.CheckRange(xi, s.cfg.Width, s.cfg.Signed); err != nil {
				return nil, fmt.Errorf("maxsim: row %d round %d: %w", i, round, err)
			}
		}
		run := &DotProductRun{Rounds: make([]*gc.Garbled, 0, len(row)), Stats: s.Account(len(row))}
		err := lane.GarbleRow(i, row, func(_ int, gb *gc.Garbled) error {
			run.Rounds = append(run.Rounds, gb)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("maxsim: %w", err)
		}
		run.OutputPairs = run.Rounds[len(row)-1].OutputPairs
		s.Count(run.Stats)
		runs[i] = run
	}
	return runs, nil
}

// NewRequest keys a request of cols-round rows of the MAC from a fresh
// 16-byte seed read from Config.Rand: the rows of one request share its
// Δ, and every request gets a new one.
func (s *Simulator) NewRequest(cols int) (*gc.Request, error) {
	var seed [16]byte
	if _, err := io.ReadFull(s.cfg.Rand, seed[:]); err != nil {
		return nil, fmt.Errorf("maxsim: drawing request seed: %w", err)
	}
	return gc.NewRequest(s.cfg.Params, s.macCkt, cols, seed)
}

// Account is the hardware-model accounting of garbling one m-round dot
// product: the schedule's cycles, stages and slots, and the functional
// netlist's tables and bytes. It is a function of m alone and records
// nothing; Count does.
func (s *Simulator) Account(m int) Stats {
	macs := uint64(m)
	st := Stats{MACs: macs, TablesGarbled: s.ands * macs}
	st.TableBytes = st.TablesGarbled * uint64(s.cfg.Params.Scheme.TableSize()) * label.Size
	st.Cycles = s.schedule.TotalCycles(m)
	st.Stages = st.Cycles / sched.CyclesPerStage
	st.TablesScheduled = uint64(s.schedule.TablesPerStage()) * st.Stages
	st.IdleSlots = uint64(s.schedule.IdleSlotsPerStage()) * st.Stages
	slots := uint64(s.schedule.NumCores()*sched.CyclesPerStage) * st.Stages
	if slots > 0 {
		st.CoreUtilization = 1 - float64(st.IdleSlots)/float64(slots)
	}
	// Label entropy: one fresh k-bit label per input wire per round
	// plus the free-XOR offset once. The §5.2 worst case is
	// k·(b/2) bits per cycle; the average demand here is far lower,
	// which is why the FSM gates the RNGs off.
	inputWires := uint64(s.macCkt.NGarbler + s.macCkt.NEvaluator)
	st.RNGBitsDrawn = (inputWires*macs + uint64(s.macCkt.NState)) * label.Bits
	st.ModeledTime = s.cfg.Device.CyclesToDuration(st.Cycles)
	st.PCIeTime = s.cfg.PCIe.TransferTime(int(st.TableBytes))
	return st
}

// Count records st — the accounting of rounds just garbled — into the
// hardware counters (macs_total and its siblings).
func (s *Simulator) Count(st Stats) {
	s.met.macs.Add(st.MACs)
	s.met.cycles.Add(st.Cycles)
	s.met.stages.Add(st.Stages)
	s.met.tablesGarbled.Add(st.TablesGarbled)
	s.met.tablesScheduled.Add(st.TablesScheduled)
	s.met.tableBytes.Add(st.TableBytes)
	s.met.idleSlots.Add(st.IdleSlots)
	s.met.rngBits.Add(st.RNGBitsDrawn)
	// Per-core idle attribution follows the FSM grid: a core's idle
	// slots per stage are fixed by its slot pattern.
	for i, c := range s.met.coreIdle {
		c.Add(s.idlePerStage[i] * st.Stages)
	}
}

// MatMulStats models garbling an (n×m)·(m×p) matrix product: n·p
// output elements of m MAC rounds each, distributed over the
// configured MAC units. §4.3: 1 product per 3·M·N·P·b cycles on one
// unit.
func (s *Simulator) MatMulStats(n, m, p int) (Stats, error) {
	if n <= 0 || m <= 0 || p <= 0 {
		return Stats{}, fmt.Errorf("maxsim: invalid matrix shape %d×%d · %d×%d", n, m, m, p)
	}
	elements := uint64(n) * uint64(p)
	units := uint64(s.cfg.MACUnits)
	perUnit := (elements + units - 1) / units
	var st Stats
	st.MACs = elements * uint64(m)
	// The critical unit garbles perUnit elements back to back; the
	// pipeline refills between elements (accumulator reset).
	cyclesPerElement := s.schedule.TotalCycles(m)
	st.Cycles = perUnit * cyclesPerElement
	st.Stages = st.Cycles / sched.CyclesPerStage
	st.TablesScheduled = uint64(s.schedule.TablesPerStage()) * st.Stages * units
	st.IdleSlots = uint64(s.schedule.IdleSlotsPerStage()) * st.Stages * units
	st.TablesGarbled = s.ands * st.MACs
	st.TableBytes = st.TablesGarbled * uint64(s.cfg.Params.Scheme.TableSize()) * label.Size
	st.CoreUtilization = 1 - float64(s.schedule.IdleSlotsPerStage())/float64(s.schedule.NumCores()*sched.CyclesPerStage)
	inputWires := uint64(s.macCkt.NGarbler + s.macCkt.NEvaluator)
	st.RNGBitsDrawn = inputWires * st.MACs * label.Bits
	st.ModeledTime = s.cfg.Device.CyclesToDuration(st.Cycles)
	st.PCIeTime = s.cfg.PCIe.TransferTime(int(st.TableBytes))
	return st, nil
}

// EvaluateDotProduct runs the evaluator side over a DotProductRun for
// the client vector a, chaining state labels across rounds, and
// returns the decoded accumulator. It stands in for the full network
// protocol in tests and single-process examples; package protocol
// performs the same steps over a wire.Conn with real OT, on the same
// one-Evaluator-per-chain walker.
func EvaluateDotProduct(params gc.Params, ckt *circuit.Circuit, run *DotProductRun, a []int64, width int, signed bool) (int64, error) {
	if len(a) != len(run.Rounds) {
		return 0, fmt.Errorf("maxsim: vector length %d != garbled rounds %d", len(a), len(run.Rounds))
	}
	ev, err := gc.NewEvaluator(params, ckt)
	if err != nil {
		return 0, err
	}
	evalActive := make([]label.Label, width)
	var stateAct []label.Label
	var out *gc.EvalResult
	for round, ai := range a {
		if err := circuit.CheckRange(ai, width, signed); err != nil {
			return 0, fmt.Errorf("maxsim: round %d: %w", round, err)
		}
		gb := run.Rounds[round]
		for i := range evalActive {
			evalActive[i] = gb.EvalPairs[i].Get(uint64(ai)>>i&1 == 1) // in-process label pickup
		}
		if out, err = ev.Eval(&gb.Material, evalActive, stateAct); err != nil {
			return 0, fmt.Errorf("maxsim: evaluating round %d: %w", round, err)
		}
		stateAct = out.StateActive
	}
	if signed {
		return circuit.BitsToInt64(out.Outputs), nil
	}
	return int64(circuit.BitsToUint64(out.Outputs)), nil
}

// Package tinygarble reimplements, in Go, the software baseline of
// Table 2: a TinyGarble-style sequential garbled-circuit framework
// ([16], IEEE S&P 2015). Like the original it is netlist-driven — the
// MAC is a compact sequential netlist with the accumulator in DFF
// state, garbled once per round with fresh labels — and runs on one
// CPU core.
//
// The package provides two things:
//
//   - A live software garbler whose throughput is measured on the host
//     running the benchmarks (the "measured" column of the Table 2
//     reproduction).
//   - An ASAP dependency-scheduling model that counts the cycles a
//     netlist-driven engine with E parallel encryption units would
//     need, exposing the pipeline stalls the paper attributes to
//     netlist execution ("The throughput of [16] will go down while
//     garbling a complete netlist due to pipeline stalls caused by
//     dependency issues", §5.4). MAXelerator's FSM schedule is the
//     stall-free counterpoint.
package tinygarble

import (
	"fmt"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// Framework is a single-core software sequential-GC engine.
type Framework struct {
	params  gc.Params
	width   int
	ckt     *circuit.Circuit
	garbler *gc.Garbler
}

// New builds a software framework for bit-width b. The MAC netlist
// uses the serial multiplier, matching TinyGarble's multiplication
// structure (§4: "the implementation of the multiplication operation
// in [16] follows a serial nature").
func New(width int) (*Framework, error) {
	if width < 2 || width%2 != 0 {
		return nil, fmt.Errorf("tinygarble: bit-width %d must be an even integer ≥ 2", width)
	}
	ckt, err := circuit.MAC(circuit.MACConfig{
		Width:            width,
		AccWidth:         2 * width,
		SerialMultiplier: true,
	})
	if err != nil {
		return nil, err
	}
	params := gc.DefaultParams()
	g, err := gc.NewGarbler(params, label.MustSystemDRBG())
	if err != nil {
		return nil, err
	}
	return &Framework{params: params, width: width, ckt: ckt, garbler: g}, nil
}

// Width returns the operand bit-width.
func (f *Framework) Width() int { return f.width }

// Circuit returns the MAC netlist being garbled.
func (f *Framework) Circuit() *circuit.Circuit { return f.ckt }

// Params returns the garbling parameters.
func (f *Framework) Params() gc.Params { return f.params }

// Stats reports a measured garbling run.
type Stats struct {
	// MACs is the number of MAC rounds garbled.
	MACs int
	// Elapsed is the wall-clock garbling time on this host.
	Elapsed time.Duration
	// TableBytes is the garbled-table volume produced.
	TableBytes uint64
	// Tables is the garbled-table count.
	Tables uint64
}

// TimePerMAC is the measured per-round latency.
func (s Stats) TimePerMAC() time.Duration {
	if s.MACs == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.MACs)
}

// ThroughputMACsPerSec is the measured single-core throughput.
func (s Stats) ThroughputMACsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.MACs) / s.Elapsed.Seconds()
}

// GarbleMACRounds garbles n sequential MAC rounds (one dot-product
// element chain) and measures wall-clock cost. The garbler input
// cycles through a deterministic pattern; input values do not affect
// garbling cost.
func (f *Framework) GarbleMACRounds(n int) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("tinygarble: round count %d must be positive", n)
	}
	var st Stats
	var state0 []label.Label
	var tweak uint64
	mask := int64(1)<<f.width - 1
	start := time.Now()
	for round := 0; round < n; round++ {
		gb, err := f.garbler.Garble(f.ckt, gc.GarbleOptions{
			GarblerInputs: circuit.Int64ToBits(int64(round)&mask, f.width),
			State0:        state0,
			TweakBase:     tweak,
		})
		if err != nil {
			return Stats{}, fmt.Errorf("tinygarble: round %d: %w", round, err)
		}
		state0 = gb.StateOut0
		tweak = gb.NextTweak
		st.Tables += uint64(gb.Material.NumTables)
		st.TableBytes += uint64(gb.Material.CiphertextBytes())
	}
	st.Elapsed = time.Since(start)
	st.MACs = n
	return st, nil
}

// ASAPCycles models a netlist-driven engine with `units` parallel
// encryption units garbling circuit c as fast as dependencies allow:
// ANDs are levelled by AND-depth and each level of nₗ gates costs
// ⌈nₗ/units⌉ cycles (XORs are free). The result is the engine's
// cycle count per garbling; stalls are the excess over the ideal
// ⌈ANDs/units⌉.
func ASAPCycles(c *circuit.Circuit, units int) (cycles, stalls int, err error) {
	if units <= 0 {
		return 0, 0, fmt.Errorf("tinygarble: unit count %d must be positive", units)
	}
	depth := make([]int, c.NWires)
	levels := make(map[int]int)
	ands := 0
	for _, g := range c.Gates {
		d := depth[g.A]
		if depth[g.B] > d {
			d = depth[g.B]
		}
		if g.Op == circuit.AND {
			d++
			levels[d]++
			ands++
		}
		depth[g.Out] = d
	}
	for _, n := range levels {
		cycles += (n + units - 1) / units
	}
	ideal := (ands + units - 1) / units
	return cycles, cycles - ideal, nil
}

// EvalStats reports a measured evaluation run (the client-side cost of
// the system: the evaluator is always software, even with the
// accelerator garbling).
type EvalStats struct {
	// MACs is the number of MAC rounds evaluated.
	MACs int
	// Elapsed is the wall-clock evaluation time on this host.
	Elapsed time.Duration
}

// TimePerMAC is the measured per-round evaluation latency.
func (s EvalStats) TimePerMAC() time.Duration {
	if s.MACs == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.MACs)
}

// ThroughputMACsPerSec is the measured single-core evaluation
// throughput.
func (s EvalStats) ThroughputMACsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.MACs) / s.Elapsed.Seconds()
}

// EvaluateMACRounds garbles and then evaluates n sequential MAC
// rounds, timing only the evaluation (half-gate evaluation costs 2
// hash calls per AND versus 4 when garbling, so the client runs
// roughly twice as fast as a software garbler).
func (f *Framework) EvaluateMACRounds(n int) (EvalStats, error) {
	if n <= 0 {
		return EvalStats{}, fmt.Errorf("tinygarble: round count %d must be positive", n)
	}
	type round struct {
		material *gc.Material
		active   []label.Label
	}
	rounds := make([]round, 0, n)
	var state0 []label.Label
	var tweak uint64
	mask := int64(1)<<f.width - 1
	for r := 0; r < n; r++ {
		gb, err := f.garbler.Garble(f.ckt, gc.GarbleOptions{
			GarblerInputs: circuit.Int64ToBits(int64(r)&mask, f.width),
			State0:        state0,
			TweakBase:     tweak,
		})
		if err != nil {
			return EvalStats{}, err
		}
		state0 = gb.StateOut0
		tweak = gb.NextTweak
		aBits := circuit.Int64ToBits(int64(r+1)&mask, f.width)
		active := make([]label.Label, len(aBits))
		for i, v := range aBits {
			active[i] = gb.EvalPairs[i].Get(v)
		}
		rounds = append(rounds, round{material: &gb.Material, active: active})
	}

	ev, err := gc.NewEvaluator(f.params, f.ckt)
	if err != nil {
		return EvalStats{}, err
	}
	var stateAct []label.Label
	start := time.Now()
	for r := range rounds {
		res, err := ev.Eval(rounds[r].material, rounds[r].active, stateAct)
		if err != nil {
			return EvalStats{}, fmt.Errorf("tinygarble: evaluating round %d: %w", r, err)
		}
		stateAct = res.StateActive
	}
	return EvalStats{MACs: n, Elapsed: time.Since(start)}, nil
}

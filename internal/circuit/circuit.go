// Package circuit provides the Boolean netlist intermediate
// representation used throughout the MAXelerator reproduction, together
// with a builder for the GC-optimised arithmetic blocks the paper
// relies on: the one-AND-per-bit ripple adder of TinyGarble, the
// tree-based multiplier of Fig. 2 (its rows selected by the garbler's
// radix-4 Booth digits, which serve signed and unsigned inputs alike),
// multiplexers, and comparison logic.
//
// Circuits consist solely of 2-input XOR and AND gates plus free
// inversions, matching the cost model of free-XOR garbling where XOR
// gates cost nothing and every AND gate costs one garbled table. The
// builder folds constants and repeated operands as it emits gates, so
// the netlist it builds is the one that is garbled: there is no
// separate optimisation pass.
package circuit

import (
	"errors"
	"fmt"
)

// Op is a gate operation.
type Op uint8

// Gate operations. NOT is represented as XOR with the constant-one
// wire, so only two ops exist in built netlists.
const (
	// XOR is a free gate under free-XOR garbling.
	XOR Op = iota
	// AND costs one garbled table (two ciphertexts with half gates).
	AND
)

// String renders the op mnemonic.
func (o Op) String() string {
	switch o {
	case XOR:
		return "XOR"
	case AND:
		return "AND"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Gate is a 2-input 1-output logic gate. A and B index input wires and
// Out indexes the gate's output wire.
type Gate struct {
	Op   Op
	A, B int
	Out  int
}

// Reserved wire indices. Wire 0 carries constant FALSE and wire 1
// constant TRUE; garbler inputs, evaluator inputs and gate outputs
// follow.
const (
	// Const0 is the wire carrying constant logical 0.
	Const0 = 0
	// Const1 is the wire carrying constant logical 1.
	Const1 = 1
	// FirstInput is the index of the first party input wire.
	FirstInput = 2
)

// Circuit is an immutable netlist, optionally sequential. A sequential
// circuit (NState > 0) follows TinyGarble's model: state wires behave
// like D flip-flop outputs whose values at round r+1 are the StateOuts
// of round r; at round 0 they carry logical 0.
type Circuit struct {
	// NGarbler and NEvaluator are the party input bit counts. Garbler
	// inputs occupy wires [FirstInput, FirstInput+NGarbler); evaluator
	// inputs follow immediately after.
	NGarbler, NEvaluator int
	// NState is the number of sequential state (DFF) wires, placed
	// immediately after the evaluator inputs.
	NState int
	// Gates in topological order: every gate's inputs are constants,
	// party inputs, state wires, or outputs of earlier gates.
	Gates []Gate
	// Outputs lists the circuit output wires in order.
	Outputs []int
	// StateOuts lists, for each state wire in order, the wire feeding
	// it for the next round. len(StateOuts) == NState.
	StateOuts []int
	// NWires is the total wire count (constants + inputs + state +
	// gates).
	NWires int

	// lowered is the slot-renamed program the gc walkers run, compiled
	// once on first use (see Program).
	lowered compiled
}

// GarblerInputWire returns the wire index of garbler input bit i.
func (c *Circuit) GarblerInputWire(i int) int { return FirstInput + i }

// EvaluatorInputWire returns the wire index of evaluator input bit i.
func (c *Circuit) EvaluatorInputWire(i int) int { return FirstInput + c.NGarbler + i }

// StateWire returns the wire index of state bit i.
func (c *Circuit) StateWire(i int) int { return FirstInput + c.NGarbler + c.NEvaluator + i }

// Stats summarises garbling-relevant netlist metrics.
type Stats struct {
	// ANDs is the non-free gate count: the number of garbled tables.
	ANDs int
	// XORs is the free gate count.
	XORs int
	// ANDDepth is the longest chain of AND gates from any input to any
	// output — the sequential lower bound on garbling rounds when only
	// dependency order constrains scheduling.
	ANDDepth int
	// Wires is the total wire count.
	Wires int
}

// Stats computes netlist statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Wires: c.NWires}
	depth := make([]int, c.NWires)
	for _, g := range c.Gates {
		d := depth[g.A]
		if depth[g.B] > d {
			d = depth[g.B]
		}
		switch g.Op {
		case AND:
			s.ANDs++
			d++
		case XOR:
			s.XORs++
		}
		depth[g.Out] = d
		if d > s.ANDDepth {
			s.ANDDepth = d
		}
	}
	return s
}

// Validate checks structural well-formedness: topological gate order,
// in-range wire indices, single assignment per wire, and reachable
// outputs.
func (c *Circuit) Validate() error {
	if c.NGarbler < 0 || c.NEvaluator < 0 || c.NState < 0 {
		return errors.New("circuit: negative input count")
	}
	if len(c.StateOuts) != c.NState {
		return fmt.Errorf("circuit: %d state wires but %d state outputs", c.NState, len(c.StateOuts))
	}
	// defined is a bit per wire: Validate runs on every Build and every
	// lowering, twice a client Dial, so it keeps to an eighth of a []bool.
	defined := make([]uint64, (c.NWires+63)/64)
	define := func(w int) { defined[w/64] |= 1 << (w % 64) }
	isDefined := func(w int) bool { return defined[w/64]&(1<<(w%64)) != 0 }
	span := FirstInput + c.NGarbler + c.NEvaluator + c.NState
	if c.NWires < span {
		return fmt.Errorf("circuit: NWires %d below input span %d", c.NWires, span)
	}
	for i := 0; i < span; i++ {
		define(i)
	}
	for i, g := range c.Gates {
		if g.Op != XOR && g.Op != AND {
			return fmt.Errorf("circuit: gate %d has unknown op %d", i, g.Op)
		}
		if g.A < 0 || g.A >= c.NWires || g.B < 0 || g.B >= c.NWires {
			return fmt.Errorf("circuit: gate %d reads out-of-range wire", i)
		}
		if !isDefined(g.A) || !isDefined(g.B) {
			return fmt.Errorf("circuit: gate %d reads undefined wire (not topological)", i)
		}
		if g.Out < 0 || g.Out >= c.NWires {
			return fmt.Errorf("circuit: gate %d writes out-of-range wire %d", i, g.Out)
		}
		if isDefined(g.Out) {
			return fmt.Errorf("circuit: gate %d redefines wire %d", i, g.Out)
		}
		define(g.Out)
	}
	for i, w := range c.Outputs {
		if w < 0 || w >= c.NWires || !isDefined(w) {
			return fmt.Errorf("circuit: output %d references undefined wire %d", i, w)
		}
	}
	for i, w := range c.StateOuts {
		if w < 0 || w >= c.NWires || !isDefined(w) {
			return fmt.Errorf("circuit: state output %d references undefined wire %d", i, w)
		}
	}
	return nil
}

// Eval computes the plaintext outputs of a combinational circuit for
// the given party inputs. It is the correctness reference the garbled
// execution is tested against. For sequential circuits use EvalRound.
func (c *Circuit) Eval(garbler, evaluator []bool) ([]bool, error) {
	if c.NState != 0 {
		return nil, fmt.Errorf("circuit: Eval on sequential circuit with %d state wires; use EvalRound", c.NState)
	}
	out, _, err := c.EvalRound(garbler, evaluator, nil)
	return out, err
}

// EvalRound computes one round of a (possibly sequential) circuit:
// given party inputs and the current state values it returns the
// outputs and the next state. A nil state is treated as all zeros
// (round 0).
func (c *Circuit) EvalRound(garbler, evaluator, state []bool) (outputs, nextState []bool, err error) {
	if len(garbler) != c.NGarbler {
		return nil, nil, fmt.Errorf("circuit: got %d garbler bits, want %d", len(garbler), c.NGarbler)
	}
	if len(evaluator) != c.NEvaluator {
		return nil, nil, fmt.Errorf("circuit: got %d evaluator bits, want %d", len(evaluator), c.NEvaluator)
	}
	if state == nil {
		state = make([]bool, c.NState)
	}
	if len(state) != c.NState {
		return nil, nil, fmt.Errorf("circuit: got %d state bits, want %d", len(state), c.NState)
	}
	w := make([]bool, c.NWires)
	w[Const1] = true
	copy(w[FirstInput:], garbler)
	copy(w[FirstInput+c.NGarbler:], evaluator)
	copy(w[FirstInput+c.NGarbler+c.NEvaluator:], state)
	for _, g := range c.Gates {
		switch g.Op {
		case XOR:
			w[g.Out] = w[g.A] != w[g.B]
		case AND:
			w[g.Out] = w[g.A] && w[g.B]
		}
	}
	outputs = make([]bool, len(c.Outputs))
	for i, ow := range c.Outputs {
		outputs[i] = w[ow]
	}
	nextState = make([]bool, c.NState)
	for i, sw := range c.StateOuts {
		nextState[i] = w[sw]
	}
	return outputs, nextState, nil
}

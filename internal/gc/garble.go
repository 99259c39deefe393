package gc

import (
	"fmt"
	"io"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
)

// Params bundles the garbling configuration shared by both parties.
type Params struct {
	// Hash is the garbling hash; both parties must agree on it.
	Hash gchash.Hasher
	// Scheme is the AND-garbling scheme; both parties must agree on it.
	Scheme Scheme
}

// DefaultParams returns the paper's configuration: half gates over the
// fixed-key AES hash.
func DefaultParams() Params {
	return Params{Hash: gchash.MustAES(), Scheme: HalfGates{}}
}

func (p Params) validate() error {
	if p.Hash == nil {
		return fmt.Errorf("gc: nil hash")
	}
	if p.Scheme == nil {
		return fmt.Errorf("gc: nil scheme")
	}
	return nil
}

// Material is everything the evaluator receives for one garbled
// execution, besides its own OT-transferred input labels: garbled
// tables, the garbler's active input labels, the constant-wire labels
// and the output decoding permutation.
type Material struct {
	// Tables holds one garbled table per AND gate, in gate order.
	Tables [][]label.Label
	// GarblerActive are the active labels of the garbler's input wires.
	GarblerActive []label.Label
	// ConstActive are the active labels of the constant-0 and
	// constant-1 wires.
	ConstActive [2]label.Label
	// OutputPerm holds the permute (select) bit of each output wire's
	// FALSE label; the evaluator decodes output v = lsb(active) ⊕ perm.
	OutputPerm []bool
	// StateInActive carries, on round 0 of a sequential execution, the
	// active labels of the state wires (their FALSE labels, since state
	// starts at logical 0). Nil on later rounds, where the evaluator
	// reuses the state labels produced by its previous round.
	StateInActive []label.Label
	// TweakBase is the first hash tweak used by this execution; the
	// evaluator must use the same sequence.
	TweakBase uint64
}

// CiphertextBytes is the total garbled-table volume in bytes — the
// traffic the accelerator must push over PCIe and the host over the
// network.
func (m *Material) CiphertextBytes() int {
	n := 0
	for _, t := range m.Tables {
		n += len(t) * label.Size
	}
	return n
}

// Garbled is the garbler-side result of garbling one circuit (or one
// round of a sequential circuit). It retains the garbler's secrets:
// the FALSE label of every wire.
type Garbled struct {
	// Material is the public part, shipped to the evaluator.
	Material Material
	// EvalPairs holds the label pair of each evaluator input wire, the
	// sender-side input to oblivious transfer.
	EvalPairs []label.Pair
	// GarblerPairs holds the label pair of each garbler input wire.
	// Material.GarblerActive is the per-value selection from these
	// pairs; retaining them lets a precomputation layer garble before
	// the garbler's inputs are known and select the active labels later
	// (the offline/online split — tables and labels are input-
	// independent, only the selection is not).
	GarblerPairs []label.Pair
	// OutputPairs holds the label pair of each output wire; the garbler
	// can decode or verify outputs with them.
	OutputPairs []label.Pair
	// StateOut0 holds the FALSE labels of the state-output wires; they
	// seed the state wires of the next sequential round.
	StateOut0 []label.Label
	// NextTweak is the tweak the next round must start from.
	NextTweak uint64
}

// Garbler garbles circuits under a fixed global Δ drawn at
// construction. A Garbler is not safe for concurrent use.
type Garbler struct {
	params Params
	delta  label.Delta
	rand   io.Reader
}

// NewGarbler creates a garbler with a fresh free-XOR offset drawn from
// rnd.
func NewGarbler(params Params, rnd io.Reader) (*Garbler, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if rnd == nil {
		return nil, fmt.Errorf("gc: nil random source")
	}
	d, err := label.NewDelta(rnd)
	if err != nil {
		return nil, err
	}
	return &Garbler{params: params, delta: d, rand: rnd}, nil
}

// GarbleOptions refines a Garble call.
type GarbleOptions struct {
	// GarblerInputs are the garbler's plaintext input bits; required
	// length circuit.NGarbler.
	GarblerInputs []bool
	// State0 supplies the FALSE labels of the state wires for a
	// sequential round; nil means round 0, where the garbler fixes the
	// state to logical 0 by construction (the evaluator's round-0
	// active state labels equal these FALSE labels).
	State0 []label.Label
	// TweakBase is the first hash tweak for this execution. Sequential
	// rounds must use strictly increasing, non-overlapping tweak
	// ranges; pass the previous round's NextTweak.
	TweakBase uint64
}

// Garble garbles the circuit and returns both the evaluator-bound
// material and the garbler-side secrets.
func (g *Garbler) Garble(c *circuit.Circuit, opts GarbleOptions) (*Garbled, error) {
	if len(opts.GarblerInputs) != c.NGarbler {
		return nil, fmt.Errorf("gc: got %d garbler input bits, want %d", len(opts.GarblerInputs), c.NGarbler)
	}
	if opts.State0 != nil && len(opts.State0) != c.NState {
		return nil, fmt.Errorf("gc: got %d state labels, want %d", len(opts.State0), c.NState)
	}

	wire0 := make([]label.Label, c.NWires)
	inputSpan := circuit.FirstInput + c.NGarbler + c.NEvaluator + c.NState
	for i := 0; i < inputSpan; i++ {
		l, err := label.Random(g.rand)
		if err != nil {
			return nil, err
		}
		wire0[i] = l
	}
	stateBase := circuit.FirstInput + c.NGarbler + c.NEvaluator
	if opts.State0 != nil {
		copy(wire0[stateBase:], opts.State0)
	}

	tables := make([][]label.Label, 0, len(c.Gates))
	tweak := opts.TweakBase
	for _, gate := range c.Gates {
		switch gate.Op {
		case circuit.XOR:
			wire0[gate.Out] = wire0[gate.A].Xor(wire0[gate.B])
		case circuit.AND:
			out0, table := g.params.Scheme.GarbleAND(g.params.Hash, g.delta, wire0[gate.A], wire0[gate.B], tweak)
			wire0[gate.Out] = out0
			tables = append(tables, table)
			tweak += g.params.Scheme.TweaksPerGate()
		default:
			return nil, fmt.Errorf("gc: unsupported op %v", gate.Op)
		}
	}

	res := &Garbled{
		Material: Material{
			Tables:     tables,
			OutputPerm: make([]bool, len(c.Outputs)),
			TweakBase:  opts.TweakBase,
		},
		EvalPairs:   make([]label.Pair, c.NEvaluator),
		OutputPairs: make([]label.Pair, len(c.Outputs)),
		StateOut0:   make([]label.Label, c.NState),
		NextTweak:   tweak,
	}
	// Constant wires: the active label of const-0 is its FALSE label,
	// of const-1 its TRUE label.
	res.Material.ConstActive[0] = wire0[circuit.Const0]
	res.Material.ConstActive[1] = g.delta.Flip(wire0[circuit.Const1])
	// Garbler inputs: active labels for the garbler's values, selected
	// from the retained pairs.
	res.Material.GarblerActive = make([]label.Label, c.NGarbler)
	res.GarblerPairs = make([]label.Pair, c.NGarbler)
	for i, v := range opts.GarblerInputs {
		res.GarblerPairs[i] = label.NewPair(wire0[c.GarblerInputWire(i)], g.delta)
		res.Material.GarblerActive[i] = res.GarblerPairs[i].Get(v)
	}
	for i := range res.EvalPairs {
		res.EvalPairs[i] = label.NewPair(wire0[c.EvaluatorInputWire(i)], g.delta)
	}
	for i, ow := range c.Outputs {
		res.Material.OutputPerm[i] = wire0[ow].LSB()
		res.OutputPairs[i] = label.NewPair(wire0[ow], g.delta)
	}
	for i, sw := range c.StateOuts {
		res.StateOut0[i] = wire0[sw]
	}
	if opts.State0 == nil && c.NState > 0 {
		// Round 0: state is logical 0, so the FALSE labels are active
		// and must travel to the evaluator.
		res.Material.StateInActive = append([]label.Label(nil), wire0[stateBase:stateBase+c.NState]...)
	}
	return res, nil
}

// DecodeWithPairs decodes active output labels on the garbler side by
// matching them against the known pairs. It errors on labels that
// belong to neither side of a pair, which indicates corruption.
func DecodeWithPairs(pairs []label.Pair, active []label.Label) ([]bool, error) {
	if len(pairs) != len(active) {
		return nil, fmt.Errorf("gc: got %d active labels, want %d", len(active), len(pairs))
	}
	out := make([]bool, len(active))
	for i, a := range active {
		switch a {
		case pairs[i].False:
			out[i] = false
		case pairs[i].True:
			out[i] = true
		default:
			return nil, fmt.Errorf("gc: output label %d matches neither pair label", i)
		}
	}
	return out, nil
}

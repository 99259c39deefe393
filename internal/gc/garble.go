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

// halfGatesAES reports whether p is the paper's configuration — half
// gates over the fixed-key AES hash, the only one the protocol serves —
// by returning the concrete hash, or nil for any other combination. It
// is the AND step's one branch: the concrete kernel (kernel.go) when
// non-nil, the Scheme/Hasher interfaces otherwise.
func (p Params) halfGatesAES() *gchash.AES {
	if _, ok := p.Scheme.(HalfGates); !ok {
		return nil
	}
	h, _ := p.Hash.(*gchash.AES)
	return h
}

// Material is everything the evaluator receives for one garbled
// execution, besides its own OT-transferred input labels: garbled
// tables, the garbler's active input labels, the constant-wire labels
// and the output decoding permutation.
//
// A Material returned by UnmarshalMaterial aliases the frame it was
// parsed from (TableBlock points into it): it is valid until the caller
// drops or reuses that buffer. Eval copies everything it returns, so an
// EvalResult never extends the frame's life.
type Material struct {
	// TableBlock holds the garbled tables of every AND gate, in gate
	// order, in the wire layout of codec.go, which is also their
	// in-memory layout: per table a row-count byte, then rows × 16 B.
	// Garble writes rows into it in place and Eval reads them where
	// they lie.
	TableBlock []byte
	// NumTables is the number of tables in TableBlock.
	NumTables int
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
	return len(m.TableBlock) - m.NumTables // everything but the row-count bytes
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
	// NextTweak is one past the last tweak this execution hashed; the
	// garbler's next execution starts there.
	NextTweak uint64
}

// Garbler garbles circuits under a fixed global Δ drawn at
// construction. It owns the tweak sequence under that Δ: every Garble
// continues where the previous one stopped, so no tweak is hashed twice
// under one Δ, whatever chains or rows the caller garbles on it. Two
// executions that hashed one label under one tweak would differ by
// exactly the XOR of their other inputs, and the half-gate evaluator row
// carries the garbler's FALSE label, so an evaluator holding both
// garblings' active labels would learn Δ.
//
// A Garbler is not safe for concurrent use: besides Δ, the label stream
// and the tweak cursor it owns the walker's working memory — the slot
// array and the AND kernel's hash scratch — which is reused from round
// to round. Params (the hash included) and the circuit are only read, so
// any number of garblers may share them.
type Garbler struct {
	params Params
	delta  label.Delta
	rand   io.Reader
	// next is the first tweak no execution under delta has hashed.
	next uint64
	// aes is params' concrete hash when the kernel applies, else nil.
	aes *gchash.AES
	// deltaLabel is Δ as a label, addressable for XorInto.
	deltaLabel label.Label
	// slots is the walker's working array, grown to the largest program
	// seen; and is the AND kernel's hash scratch.
	slots []label.Label
	and   gchash.ANDBlocks
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
	return &Garbler{params: params, delta: d, rand: rnd, aes: params.halfGatesAES(), deltaLabel: d.Label()}, nil
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
	// TweakBase is a floor for this execution's first hash tweak: Garble
	// starts at the larger of it and the garbler's cursor, so a base
	// below the tweaks already used is raised, never honoured.
	//
	// Deprecated: the Garbler's cursor owns the tweak sequence. The field
	// stays only because the benchmark harness under bench/ sets it, and
	// goes when that harness is re-based (ROADMAP.md item 1).
	TweakBase uint64
}

// Garble garbles the circuit and returns both the evaluator-bound
// material and the garbler-side secrets. It draws one fresh 16-byte
// label per constant, input and state wire, in wire order, then walks
// the circuit's lowered program once, hashing under the tweaks that
// follow the garbler's previous execution; the returned values are
// freshly allocated and stay valid across later Garble calls.
func (g *Garbler) Garble(c *circuit.Circuit, opts GarbleOptions) (*Garbled, error) {
	prog, err := c.Program()
	if err != nil {
		return nil, err
	}
	if len(opts.GarblerInputs) != prog.NGarbler {
		return nil, fmt.Errorf("gc: got %d garbler input bits, want %d", len(opts.GarblerInputs), prog.NGarbler)
	}
	if opts.State0 != nil && len(opts.State0) != prog.NState {
		return nil, fmt.Errorf("gc: got %d state labels, want %d", len(opts.State0), prog.NState)
	}
	scheme := g.params.Scheme
	rows := scheme.TableSize()
	if rows > 255 {
		return nil, fmt.Errorf("gc: table with %d rows not representable", rows)
	}

	// Every slot is written before it is read (the netlist is
	// topological), so the array is reused without clearing.
	if len(g.slots) < prog.NSlots {
		g.slots = make([]label.Label, prog.NSlots)
	}
	w := g.slots
	span := prog.InputSpan()
	for i := 0; i < span; i++ {
		if err := label.ReadRandom(g.rand, &w[i]); err != nil {
			return nil, err
		}
	}
	garblerBase := circuit.FirstInput
	evalBase := garblerBase + prog.NGarbler
	stateBase := evalBase + prog.NEvaluator
	if opts.State0 != nil {
		copy(w[stateBase:span], opts.State0)
	}

	stride := 1 + rows*label.Size
	tweak := max(opts.TweakBase, g.next)
	res := &Garbled{
		Material: Material{
			TableBlock:    make([]byte, prog.NAND*stride),
			NumTables:     prog.NAND,
			GarblerActive: make([]label.Label, prog.NGarbler),
			OutputPerm:    make([]bool, len(prog.Outputs)),
			TweakBase:     tweak,
		},
		EvalPairs:    make([]label.Pair, prog.NEvaluator),
		GarblerPairs: make([]label.Pair, prog.NGarbler),
		OutputPairs:  make([]label.Pair, len(prog.Outputs)),
		StateOut0:    make([]label.Label, prog.NState),
	}
	// The input slots are recycled during the walk, so everything
	// derived from input labels is taken now. Constant wires: the active
	// label of const-0 is its FALSE label, of const-1 its TRUE label.
	res.Material.ConstActive[0] = w[circuit.Const0]
	res.Material.ConstActive[1] = g.delta.Flip(w[circuit.Const1])
	// Garbler inputs: active labels for the garbler's values, selected
	// from the retained pairs.
	for i, v := range opts.GarblerInputs {
		res.GarblerPairs[i] = label.NewPair(w[garblerBase+i], g.delta)
		res.Material.GarblerActive[i] = res.GarblerPairs[i].Get(v)
	}
	for i := range res.EvalPairs {
		res.EvalPairs[i] = label.NewPair(w[evalBase+i], g.delta)
	}
	if opts.State0 == nil && prog.NState > 0 {
		// Round 0: state is logical 0, so the FALSE labels are active
		// and must travel to the evaluator.
		res.Material.StateInActive = append([]label.Label(nil), w[stateBase:span]...)
	}

	blk := res.Material.TableBlock
	tweaksPerGate := scheme.TweaksPerGate()
	off := 0
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op == circuit.XOR {
			w[in.A].XorInto(&w[in.B], &w[in.Out])
			continue
		}
		table := blk[off : off+stride]
		if g.aes != nil {
			g.garbleHalfGate(&w[in.A], &w[in.B], &w[in.Out], table, tweak)
		} else {
			out0, t := scheme.GarbleAND(g.params.Hash, g.delta, w[in.A], w[in.B], tweak)
			if len(t) != rows {
				return nil, fmt.Errorf("gc: %s produced a %d-row table, TableSize says %d", scheme.Name(), len(t), rows)
			}
			w[in.Out] = out0
			table[0] = byte(rows)
			for r := range t {
				copy(table[1+r*label.Size:], t[r][:])
			}
		}
		off += stride
		tweak += tweaksPerGate
	}
	res.NextTweak, g.next = tweak, tweak

	for i, slot := range prog.Outputs {
		res.Material.OutputPerm[i] = w[slot].LSB()
		res.OutputPairs[i] = label.NewPair(w[slot], g.delta)
	}
	for i, slot := range prog.StateOuts {
		res.StateOut0[i] = w[slot]
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

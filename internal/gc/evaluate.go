package gc

import (
	"fmt"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
)

// EvalResult is the evaluator-side outcome of one garbled execution.
type EvalResult struct {
	// Outputs are the decoded plaintext output bits.
	Outputs []bool
	// OutputLabels are the active labels of the output wires, useful
	// when only the garbler should learn the result.
	OutputLabels []label.Label
	// StateActive are the active labels of the state-output wires,
	// carried into the next sequential round.
	StateActive []label.Label
}

// Evaluate runs the evaluator side of the protocol over one circuit
// (or one round of a sequential circuit) on a fresh Evaluator, so the
// result is the caller's. evalActive are the active labels of the
// evaluator's input wires, obtained through oblivious transfer;
// stateActive are the active state labels from the previous round (nil
// for round 0, where the garbler set the state to 0 and the material
// carries the corresponding FALSE labels as StateInActive). A caller
// evaluating round after round holds one Evaluator instead, and passes
// each result's StateActive into the next round.
func Evaluate(params Params, c *circuit.Circuit, m *Material, evalActive, stateActive []label.Label) (*EvalResult, error) {
	e, err := NewEvaluator(params, c)
	if err != nil {
		return nil, err
	}
	return e.Eval(m, evalActive, stateActive)
}

// Evaluator evaluates one circuit round after round. It owns the
// walker's working memory — the slot array, the AND kernel's hash
// scratch and the result — the way a Garbler does, so a round allocates
// nothing. Not safe for concurrent use: concurrent evaluations each hold
// their own Evaluator and share only params and the circuit, which are
// read.
type Evaluator struct {
	params Params
	prog   *circuit.Program
	// aes is params' concrete hash when the kernel applies, else nil.
	aes   *gchash.AES
	slots []label.Label
	and   gchash.ANDBlocks
	// rows is the interface path's copy of one table's rows.
	rows []label.Label
	res  EvalResult
}

// NewEvaluator resolves c's program once and sizes the working memory
// for it.
func NewEvaluator(params Params, c *circuit.Circuit) (*Evaluator, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	prog, err := c.Program()
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		params: params,
		prog:   prog,
		aes:    params.halfGatesAES(),
		slots:  make([]label.Label, prog.NSlots),
		res: EvalResult{
			Outputs:      make([]bool, len(prog.Outputs)),
			OutputLabels: make([]label.Label, len(prog.Outputs)),
			StateActive:  make([]label.Label, prog.NState),
		},
	}, nil
}

// Eval evaluates one round. The result belongs to the Evaluator until
// the next Eval; its StateActive may be passed straight back as the
// next round's stateActive.
func (e *Evaluator) Eval(m *Material, evalActive, stateActive []label.Label) (*EvalResult, error) {
	prog := e.prog
	if len(evalActive) != prog.NEvaluator {
		return nil, fmt.Errorf("gc: got %d evaluator labels, want %d", len(evalActive), prog.NEvaluator)
	}
	if stateActive == nil && m.StateInActive != nil {
		stateActive = m.StateInActive // round 0 of a sequential run
	}
	if len(stateActive) != prog.NState {
		return nil, fmt.Errorf("gc: got %d state labels, want %d", len(stateActive), prog.NState)
	}
	if len(m.GarblerActive) != prog.NGarbler {
		return nil, fmt.Errorf("gc: material has %d garbler labels, want %d", len(m.GarblerActive), prog.NGarbler)
	}
	if len(m.OutputPerm) != len(prog.Outputs) {
		return nil, fmt.Errorf("gc: material has %d output permute bits, want %d", len(m.OutputPerm), len(prog.Outputs))
	}
	if m.NumTables != prog.NAND {
		return nil, fmt.Errorf("gc: material has %d garbled tables, circuit has %d AND gates", m.NumTables, prog.NAND)
	}

	// Every slot is written before it is read (the netlist is
	// topological), so the array is reused without clearing. The state
	// labels are copied in before the walk, so they may alias e.res.
	w := e.slots
	w[circuit.Const0] = m.ConstActive[0]
	w[circuit.Const1] = m.ConstActive[1]
	copy(w[circuit.FirstInput:], m.GarblerActive)
	copy(w[circuit.FirstInput+prog.NGarbler:], evalActive)
	copy(w[circuit.FirstInput+prog.NGarbler+prog.NEvaluator:], stateActive)

	// The block is outside input: its length and every row count are
	// checked here, whoever built it, before the walk reads a table.
	blk := m.TableBlock
	rows := e.params.Scheme.TableSize()
	stride := 1 + rows*label.Size
	if len(blk) != prog.NAND*stride {
		return nil, fmt.Errorf("gc: table block of %d bytes, want %d tables of %d rows (%d bytes)", len(blk), prog.NAND, rows, prog.NAND*stride)
	}
	for off := 0; off < len(blk); off += stride {
		if int(blk[off]) != rows {
			return nil, fmt.Errorf("gc: table %d has %d rows, want %d", off/stride, blk[off], rows)
		}
	}

	tweaksPerGate := e.params.Scheme.TweaksPerGate()
	round := andRound{w: w, tables: blk, tweak: m.TweakBase}
	var bundle [2]gchash.HalfGate
	for i := 0; i < len(prog.Instrs); i++ {
		in := &prog.Instrs[i]
		switch {
		case in.Op == circuit.XOR:
			w[in.A].XorInto(&w[in.B], &w[in.Out])
		case e.aes != nil:
			round.gate(&bundle[0], in)
			n := 1
			if in.Paired {
				i, n = i+1, 2
				round.gate(&bundle[1], &prog.Instrs[i])
			}
			e.aes.EvalANDs(&e.and, bundle[:n])
		default:
			table := blk[int(in.Index)*stride+1:][:rows*label.Size]
			e.rows = e.rows[:0]
			for r := 0; r < len(table); r += label.Size {
				e.rows = append(e.rows, label.Label(table[r:r+label.Size]))
			}
			out, err := e.params.Scheme.EvalAND(e.params.Hash, w[in.A], w[in.B], e.rows, m.TweakBase+uint64(in.Index)*tweaksPerGate)
			if err != nil {
				return nil, fmt.Errorf("gc: AND %d: %w", in.Index, err)
			}
			w[in.Out] = out
		}
	}

	res := &e.res
	for i, slot := range prog.Outputs {
		res.OutputLabels[i] = w[slot]
		res.Outputs[i] = w[slot].LSB() != m.OutputPerm[i]
	}
	for i, slot := range prog.StateOuts {
		res.StateActive[i] = w[slot]
	}
	return res, nil
}

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

	blk := m.TableBlock
	tweak := m.TweakBase
	tweaksPerGate := e.params.Scheme.TweaksPerGate()
	off := 0
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Op == circuit.XOR {
			w[in.A].XorInto(&w[in.B], &w[in.Out])
			continue
		}
		// The block is outside input: its length and every row count are
		// checked here, whoever built it.
		if off >= len(blk) {
			return nil, fmt.Errorf("gc: gate %d: table block ends after %d bytes, before this gate's table", i, len(blk))
		}
		n := int(blk[off])
		end := off + 1 + n*label.Size
		if end > len(blk) {
			return nil, fmt.Errorf("gc: gate %d: %d-row table at offset %d overruns the %d-byte table block", i, n, off, len(blk))
		}
		if e.aes != nil {
			if n != halfGateRows {
				return nil, fmt.Errorf("gc: gate %d: half-gates table has %d rows, want %d", i, n, halfGateRows)
			}
			tg := (*label.Label)(blk[off+1 : off+1+label.Size])
			te := (*label.Label)(blk[off+1+label.Size : end])
			evalHalfGate(e.aes, &e.and, &w[in.A], &w[in.B], &w[in.Out], tg, te, tweak)
		} else {
			rows := e.rows[:0]
			for r := off + 1; r < end; r += label.Size {
				rows = append(rows, label.Label(blk[r:r+label.Size]))
			}
			e.rows = rows
			out, err := e.params.Scheme.EvalAND(e.params.Hash, w[in.A], w[in.B], rows, tweak)
			if err != nil {
				return nil, fmt.Errorf("gc: gate %d: %w", i, err)
			}
			w[in.Out] = out
		}
		off = end
		tweak += tweaksPerGate
	}
	if off != len(blk) {
		return nil, fmt.Errorf("gc: %d bytes of garbled tables unused", len(blk)-off)
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

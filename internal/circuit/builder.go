package circuit

import (
	"errors"
	"fmt"
)

// Builder constructs circuits gate by gate. Party inputs must be
// declared before the first gate (garbler inputs before evaluator
// inputs) so that wire numbering stays dense. Builder methods that
// take wire indices panic on structural misuse — mirroring how the
// standard library treats programmer errors like out-of-range slicing
// — while Build validates the finished netlist and returns any error.
type Builder struct {
	nGarbler, nEvaluator int
	nState               int
	gates                []Gate
	outputs              []int
	stateOuts            []int
	next                 int
	evDeclared           bool
	stDeclared           bool
	gatesStarted         bool
}

// NewBuilder returns an empty builder with the two constant wires
// already allocated.
func NewBuilder() *Builder {
	return &Builder{next: FirstInput}
}

// Word is a little-endian vector of wire indices representing a
// multi-bit value: Word[0] is the least significant bit. Indices may
// repeat (e.g. sign extension replicates the top wire).
type Word []int

// GarblerInputs allocates n garbler input wires.
func (b *Builder) GarblerInputs(n int) Word {
	if b.gatesStarted || b.evDeclared || b.stDeclared {
		panic("circuit: garbler inputs must be declared before evaluator inputs, state and gates")
	}
	if n < 0 {
		panic("circuit: negative input count")
	}
	w := b.span(n)
	b.nGarbler += n
	return w
}

// EvaluatorInputs allocates n evaluator input wires.
func (b *Builder) EvaluatorInputs(n int) Word {
	if b.gatesStarted || b.stDeclared {
		panic("circuit: evaluator inputs must be declared before state and gates")
	}
	if n < 0 {
		panic("circuit: negative input count")
	}
	b.evDeclared = true
	w := b.span(n)
	b.nEvaluator += n
	return w
}

// StateInputs allocates n sequential state wires (DFF outputs). At
// round 0 they carry logical 0; at round r+1 they carry the values
// routed to them via StateOuts at round r.
func (b *Builder) StateInputs(n int) Word {
	if b.gatesStarted {
		panic("circuit: state inputs must be declared before gates")
	}
	if n < 0 {
		panic("circuit: negative input count")
	}
	b.stDeclared = true
	w := b.span(n)
	b.nState += n
	return w
}

// StateOuts routes wires to the state inputs for the next round; the
// i-th routed wire feeds the i-th state input. The total routed count
// must equal the declared state width by Build time.
func (b *Builder) StateOuts(ws ...int) {
	for _, w := range ws {
		b.checkWire(w)
		b.stateOuts = append(b.stateOuts, w)
	}
}

func (b *Builder) span(n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = b.next
		b.next++
	}
	return w
}

func (b *Builder) checkWire(w int) {
	if w < 0 || w >= b.next {
		panic(fmt.Sprintf("circuit: wire %d out of range [0,%d)", w, b.next))
	}
}

func (b *Builder) gate(op Op, x, y int) int {
	b.checkWire(x)
	b.checkWire(y)
	b.gatesStarted = true
	out := b.next
	b.next++
	b.gates = append(b.gates, Gate{Op: op, A: x, B: y, Out: out})
	return out
}

// XOR appends a free XOR gate and returns its output wire.
func (b *Builder) XOR(x, y int) int {
	// Folding keeps netlists tight: XOR with 0 is identity and w ⊕ w is
	// 0. XOR with 1 is still a gate (inversion is cheap but not free to
	// represent).
	switch {
	case x == Const0:
		b.checkWire(y)
		return y
	case y == Const0:
		b.checkWire(x)
		return x
	case x == y:
		b.checkWire(x)
		return Const0
	}
	return b.gate(XOR, x, y)
}

// AND appends an AND gate (one garbled table) and returns its output.
// AND with a constant or with itself folds away, so a zero-padded
// adder bit, whose carry is AND(c, c), emits no table.
func (b *Builder) AND(x, y int) int {
	switch {
	case x == Const0 || y == Const0:
		b.checkWire(x)
		b.checkWire(y)
		return Const0
	case x == Const1 || x == y:
		b.checkWire(y)
		return y
	case y == Const1:
		b.checkWire(x)
		return x
	}
	return b.gate(AND, x, y)
}

// NOT returns the inversion of x, realised as a free XOR with the
// constant-one wire.
func (b *Builder) NOT(x int) int { return b.XOR(x, Const1) }

// OR returns x ∨ y using one AND gate via De Morgan.
func (b *Builder) OR(x, y int) int {
	return b.NOT(b.AND(b.NOT(x), b.NOT(y)))
}

// Const returns the wire carrying the constant v.
func (b *Builder) Const(v bool) int {
	if v {
		return Const1
	}
	return Const0
}

// Outputs marks wires as circuit outputs, in order.
func (b *Builder) Outputs(ws ...int) {
	for _, w := range ws {
		b.checkWire(w)
		b.outputs = append(b.outputs, w)
	}
}

// OutputWord marks all bits of w as outputs, LSB first.
func (b *Builder) OutputWord(w Word) { b.Outputs(w...) }

// Build finalises and validates the circuit.
func (b *Builder) Build() (*Circuit, error) {
	if len(b.outputs) == 0 {
		return nil, errors.New("circuit: no outputs declared")
	}
	c := &Circuit{
		NGarbler:   b.nGarbler,
		NEvaluator: b.nEvaluator,
		NState:     b.nState,
		Gates:      append([]Gate(nil), b.gates...),
		Outputs:    append([]int(nil), b.outputs...),
		StateOuts:  append([]int(nil), b.stateOuts...),
		NWires:     b.next,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustBuild finalises the circuit and panics on validation failure. It
// is intended for the fixed generator functions in this package whose
// output shape is covered by tests.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

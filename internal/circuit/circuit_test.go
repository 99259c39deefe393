package circuit

import (
	"testing"
	"testing/quick"
)

func evalBits(t *testing.T, c *Circuit, g, e []bool) []bool {
	t.Helper()
	out, err := c.Eval(g, e)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBuilderXORTruthTable(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.XOR(x[0], y[0]))
	c := b.MustBuild()
	for _, u := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			got := evalBits(t, c, []bool{u}, []bool{v})[0]
			if got != (u != v) {
				t.Fatalf("XOR(%v,%v)=%v", u, v, got)
			}
		}
	}
}

func TestBuilderANDTruthTable(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	for _, u := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			got := evalBits(t, c, []bool{u}, []bool{v})[0]
			if got != (u && v) {
				t.Fatalf("AND(%v,%v)=%v", u, v, got)
			}
		}
	}
}

func TestBuilderNOTAndOR(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.NOT(x[0]), b.OR(x[0], y[0]))
	c := b.MustBuild()
	for _, u := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			out := evalBits(t, c, []bool{u}, []bool{v})
			if out[0] != !u {
				t.Fatalf("NOT(%v)=%v", u, out[0])
			}
			if out[1] != (u || v) {
				t.Fatalf("OR(%v,%v)=%v", u, v, out[1])
			}
		}
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(1)
	b.EvaluatorInputs(0)
	if got := b.XOR(x[0], Const0); got != x[0] {
		t.Fatal("XOR with const0 not folded to identity")
	}
	if got := b.AND(x[0], Const0); got != Const0 {
		t.Fatal("AND with const0 not folded to zero")
	}
	if got := b.AND(x[0], Const1); got != x[0] {
		t.Fatal("AND with const1 not folded to identity")
	}
	if got := b.XOR(x[0], x[0]); got != Const0 {
		t.Fatal("XOR(w, w) not folded to const0")
	}
	if got := b.AND(x[0], x[0]); got != x[0] {
		t.Fatal("AND(w, w) not folded to w")
	}
	if len(b.gates) != 0 {
		t.Fatalf("folding still emitted %d gates", len(b.gates))
	}
}

// The builder now does the algebraic folds the deleted netlist pass did:
// (x0 ⊕ x0) ⊕ (x1 ∧ x1) builds to no gates and computes x1. Emitted
// behind the builder's back, the self-AND is flagged by the audit
// TestMACIsMinimal relies on.
func TestOptimizeFoldsAlgebra(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(2)
	b.EvaluatorInputs(0)
	b.Outputs(b.XOR(b.XOR(x[0], x[0]), b.AND(x[1], x[1])))
	c := b.MustBuild()
	if got := c.Stats(); got.ANDs != 0 || got.XORs != 0 {
		t.Fatalf("folding left %d ANDs %d XORs", got.ANDs, got.XORs)
	}
	for _, u := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			if got := evalBits(t, c, []bool{u, v}, nil)[0]; got != v {
				t.Fatalf("x=(%v,%v) gives %v, want %v", u, v, got, v)
			}
		}
	}

	b = NewBuilder()
	x = b.GarblerInputs(2)
	b.EvaluatorInputs(0)
	b.Outputs(b.XOR(b.gate(XOR, x[0], x[0]), b.gate(AND, x[1], x[1])))
	if w := auditANDs(b.MustBuild()); w != (andWaste{unfolded: 1}) {
		t.Fatalf("audit %+v, want one unfolded AND", w)
	}
}

func TestValidateCatchesNonTopological(t *testing.T) {
	c := &Circuit{
		NGarbler: 1, NEvaluator: 0, NWires: 5,
		Gates: []Gate{
			{Op: AND, A: 2, B: 4, Out: 3}, // reads wire 4 before defined
			{Op: XOR, A: 2, B: 2, Out: 4},
		},
		Outputs: []int{3},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("non-topological circuit validated")
	}
}

func TestValidateCatchesRedefinition(t *testing.T) {
	c := &Circuit{
		NGarbler: 1, NEvaluator: 0, NWires: 4,
		Gates: []Gate{
			{Op: XOR, A: 2, B: 2, Out: 3},
			{Op: XOR, A: 2, B: 2, Out: 3},
		},
		Outputs: []int{3},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("double-assignment circuit validated")
	}
}

func TestValidateCatchesBadOutput(t *testing.T) {
	c := &Circuit{NGarbler: 1, NEvaluator: 0, NWires: 3, Outputs: []int{99}}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range output validated")
	}
}

func TestValidateCatchesStateMismatch(t *testing.T) {
	c := &Circuit{NGarbler: 1, NEvaluator: 0, NState: 2, NWires: 5, Outputs: []int{2}, StateOuts: []int{2}}
	if err := c.Validate(); err == nil {
		t.Fatal("state-width mismatch validated")
	}
}

func TestBuildRequiresOutputs(t *testing.T) {
	b := NewBuilder()
	b.GarblerInputs(1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build without outputs succeeded")
	}
}

func TestInputOrderEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("garbler inputs after evaluator inputs did not panic")
		}
	}()
	b := NewBuilder()
	b.EvaluatorInputs(1)
	b.GarblerInputs(1)
}

func TestStateAfterGatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("state inputs after gates did not panic")
		}
	}()
	b := NewBuilder()
	x := b.GarblerInputs(2)
	b.XOR(x[0], x[1])
	b.StateInputs(1)
}

func TestStatsCountsGates(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(2)
	y := b.EvaluatorInputs(2)
	a1 := b.AND(x[0], y[0])
	a2 := b.AND(x[1], y[1])
	b.Outputs(b.XOR(a1, a2))
	c := b.MustBuild()
	s := c.Stats()
	if s.ANDs != 2 || s.XORs != 1 {
		t.Fatalf("stats = %+v, want 2 ANDs 1 XOR", s)
	}
	if s.ANDDepth != 1 {
		t.Fatalf("AND depth = %d, want 1", s.ANDDepth)
	}
}

func TestStatsANDDepthChains(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(4)
	b.EvaluatorInputs(0)
	w := x[0]
	for i := 1; i < 4; i++ {
		w = b.AND(w, x[i])
	}
	b.Outputs(w)
	c := b.MustBuild()
	if d := c.Stats().ANDDepth; d != 3 {
		t.Fatalf("AND depth = %d, want 3", d)
	}
}

func TestEvalRejectsWrongInputWidths(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(2)
	b.EvaluatorInputs(1)
	b.Outputs(x[0])
	c := b.MustBuild()
	if _, err := c.Eval([]bool{true}, []bool{true}); err == nil {
		t.Fatal("short garbler input accepted")
	}
	if _, err := c.Eval([]bool{true, false}, nil); err == nil {
		t.Fatal("missing evaluator input accepted")
	}
}

func TestEvalOnSequentialCircuitErrors(t *testing.T) {
	c := MustMAC(MACConfig{Width: 4, AccWidth: 8})
	if _, err := c.Eval(make([]bool, 4), make([]bool, 4)); err == nil {
		t.Fatal("Eval on sequential circuit did not error")
	}
}

func TestSequentialCounterAccumulates(t *testing.T) {
	// A 4-bit counter: state ← state + garbler input each round.
	b := NewBuilder()
	inc := b.GarblerInputs(4)
	b.EvaluatorInputs(0)
	st := b.StateInputs(4)
	next := b.Add(st, inc)
	b.StateOuts(next...)
	b.OutputWord(next)
	c := b.MustBuild()

	var state []bool
	var sum uint64
	for round := 0; round < 10; round++ {
		in := uint64(round % 5)
		sum = (sum + in) % 16
		out, next, err := c.EvalRound(Uint64ToBits(in, 4), nil, state)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToUint64(out); got != sum {
			t.Fatalf("round %d: counter = %d, want %d", round, got, sum)
		}
		state = next
	}
}

func TestWirePanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range wire did not panic")
		}
	}()
	b := NewBuilder()
	b.GarblerInputs(1)
	b.XOR(0, 999)
}

func TestOpString(t *testing.T) {
	if XOR.String() != "XOR" || AND.String() != "AND" {
		t.Fatal("op mnemonics wrong")
	}
	if Op(7).String() != "Op(7)" {
		t.Fatal("unknown op formatting wrong")
	}
}

func TestBitCodecRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		return BitsToUint64(Uint64ToBits(v, 64)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v int64) bool {
		return BitsToInt64(Int64ToBits(v, 64)) == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitCodecSignExtension(t *testing.T) {
	if got := BitsToInt64(Int64ToBits(-3, 8)); got != -3 {
		t.Fatalf("8-bit round trip of -3 = %d", got)
	}
	if got := BitsToInt64(Int64ToBits(-128, 8)); got != -128 {
		t.Fatalf("8-bit round trip of -128 = %d", got)
	}
	if got := BitsToUint64(Uint64ToBits(0xAB, 8)); got != 0xAB {
		t.Fatalf("8-bit unsigned round trip = %#x", got)
	}
}

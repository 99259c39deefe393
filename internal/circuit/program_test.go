package circuit

import (
	mrand "math/rand"
	"slices"
	"testing"
)

// runProgram evaluates a lowered program in plaintext the way the gc
// walkers run it over labels: inputs into the leading slots, one pass
// over the instructions, results read from the pinned slots.
func runProgram(p *Program, garbler, evaluator, state []bool) (outputs, next []bool) {
	w := make([]bool, p.NSlots)
	w[Const1] = true
	copy(w[FirstInput:], garbler)
	copy(w[FirstInput+p.NGarbler:], evaluator)
	copy(w[FirstInput+p.NGarbler+p.NEvaluator:], state)
	for _, in := range p.Instrs {
		if in.Op == AND {
			w[in.Out] = w[in.A] && w[in.B]
		} else {
			w[in.Out] = w[in.A] != w[in.B]
		}
	}
	for _, s := range p.Outputs {
		outputs = append(outputs, w[s])
	}
	for _, s := range p.StateOuts {
		next = append(next, w[s])
	}
	return outputs, next
}

func randomBits(rng *mrand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}

// TestProgramMatchesNetlist: slot renaming must not change what the
// circuit computes — over the MAC at every width and sign, chained
// through its state, and over netlists with unread inputs, dead gates,
// repeated operands and inputs wired straight to outputs.
func TestProgramMatchesNetlist(t *testing.T) {
	rng := mrand.New(mrand.NewSource(16))
	var circuits []*Circuit
	for _, width := range []int{4, 8, 16, 32} {
		for _, signed := range []bool{false, true} {
			circuits = append(circuits, MustMAC(MACConfig{Width: width, AccWidth: 2 * width, Signed: signed}))
		}
	}
	b := NewBuilder()
	x := b.GarblerInputs(3) // x[2] is never read
	y := b.EvaluatorInputs(2)
	st := b.StateInputs(2)
	sq := b.gate(AND, x[0], x[0])      // repeated operand, past the builder's fold
	b.AND(y[0], y[1])                  // dead gate
	b.Outputs(x[1], b.XOR(sq, st[0]))  // an input wired straight out
	b.StateOuts(st[1], b.OR(y[0], sq)) // a state wire carried over unchanged
	circuits = append(circuits, b.MustBuild())

	for ci, c := range circuits {
		p, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := c.Program(); again != p {
			t.Fatalf("circuit %d: Program compiled twice", ci)
		}
		if p.NAND != c.Stats().ANDs || len(p.Instrs) != len(c.Gates) {
			t.Fatalf("circuit %d: program has %d ANDs in %d instructions, netlist %d in %d",
				ci, p.NAND, len(p.Instrs), c.Stats().ANDs, len(c.Gates))
		}
		if p.NSlots > c.NWires {
			t.Fatalf("circuit %d: %d slots for %d wires", ci, p.NSlots, c.NWires)
		}
		for i, in := range p.Instrs {
			if int(in.A) >= p.NSlots || int(in.B) >= p.NSlots || int(in.Out) >= p.NSlots {
				t.Fatalf("circuit %d instr %d: slot out of range", ci, i)
			}
			if in.Out == in.A || in.Out == in.B {
				t.Fatalf("circuit %d instr %d: output slot aliases an input", ci, i)
			}
		}
		var state []bool
		for round := 0; round < 3; round++ {
			g, e := randomBits(rng, c.NGarbler), randomBits(rng, c.NEvaluator)
			wantOut, wantNext, err := c.EvalRound(g, e, state)
			if err != nil {
				t.Fatal(err)
			}
			gotOut, gotNext := runProgram(p, g, e, state)
			if !slices.Equal(gotOut, wantOut) || !slices.Equal(gotNext, wantNext) {
				t.Fatalf("circuit %d round %d: program and netlist disagree", ci, round)
			}
			state = wantNext
		}
	}
}

// TestProgramWorkingSet pins what slot renaming buys on the MAC: the
// walker's array is the peak live-wire count, about an eighth of the
// wire count at the serve path's widths (DESIGN.md's live-slot table).
// The radix-4 Booth rows took the peak from 84 / 292 / 1 092 slots to
// the bounds below, which are the measured peaks.
func TestProgramWorkingSet(t *testing.T) {
	for _, tc := range []struct{ width, wires, maxSlots int }{
		{8, 404, 62}, {16, 1415, 182}, {32, 5199, 614},
	} {
		c := MustMAC(MACConfig{Width: tc.width, AccWidth: 2 * tc.width, Signed: true})
		p, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		if c.NWires != tc.wires {
			t.Fatalf("b=%d: netlist has %d wires, table says %d", tc.width, c.NWires, tc.wires)
		}
		if p.NSlots > tc.maxSlots {
			t.Fatalf("b=%d: %d slots, want at most %d", tc.width, p.NSlots, tc.maxSlots)
		}
	}
}

// randomNetlist is a netlist with gates reading any earlier wire, so
// live ranges are long and uneven, repeated operands and dead gates.
func randomNetlist(rng *mrand.Rand) *Circuit {
	nG, nE := 1+rng.Intn(6), 1+rng.Intn(6)
	span := FirstInput + nG + nE
	nGates := 1 + rng.Intn(300)
	c := &Circuit{NGarbler: nG, NEvaluator: nE, NWires: span + nGates}
	for i := 0; i < nGates; i++ {
		out := span + i
		pick := func() int {
			if rng.Intn(4) == 0 {
				return rng.Intn(out)
			}
			return out - 1 - rng.Intn(min(out, 12))
		}
		c.Gates = append(c.Gates, Gate{Op: Op(rng.Intn(2)), A: pick(), B: pick(), Out: out})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c.Outputs = append(c.Outputs, rng.Intn(c.NWires))
	}
	return c
}

// bundles counts a program's two-AND bundles and single ANDs, and
// checks what a bundle promises: its second instruction is an AND that
// does not read the first's output. It also checks that the AND
// indexes are 0 … NAND−1, each once.
func bundles(t *testing.T, p *Program) (pairs, singles int) {
	t.Helper()
	seen := make([]bool, p.NAND)
	for i := 0; i < len(p.Instrs); i++ {
		in := p.Instrs[i]
		if in.Op != AND {
			if in.Paired {
				t.Fatalf("instr %d: an XOR marked as a bundle", i)
			}
			continue
		}
		if int(in.Index) >= p.NAND || seen[in.Index] {
			t.Fatalf("instr %d: AND index %d out of range or repeated", i, in.Index)
		}
		seen[in.Index] = true
		if !in.Paired {
			singles++
			continue
		}
		if i+1 == len(p.Instrs) {
			t.Fatalf("instr %d: the last instruction heads a bundle", i)
		}
		next := p.Instrs[i+1]
		if next.Op != AND || next.Paired || next.A == in.Out || next.B == in.Out {
			t.Fatalf("instr %d: bundle partner %+v is not an AND independent of %+v", i, next, in)
		}
		if int(next.Index) >= p.NAND || seen[next.Index] {
			t.Fatalf("instr %d: AND index %d out of range or repeated", i+1, next.Index)
		}
		seen[next.Index] = true
		pairs++
		i++
	}
	return pairs, singles
}

// TestProgramBundles pins how far lowering pairs the MAC's ANDs into
// two-AND bundles — the AES pipeline a kernel call keeps full — and
// checks, on the MAC and on random netlists, that every bundle is two
// independent ANDs and that bundling never needs more slots than
// netlist order (TestProgramWorkingSet's bounds are netlist order's
// peaks). The floors are the measured counts, ≥ 96 % of ANDs paired.
func TestProgramBundles(t *testing.T) {
	for _, tc := range []struct{ width, ands, pairs int }{
		{8, 112, 54}, {16, 426, 206}, {32, 1641, 808},
	} {
		c := MustMAC(MACConfig{Width: tc.width, AccWidth: 2 * tc.width, Signed: true})
		p, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		pairs, singles := bundles(t, p)
		t.Logf("b=%d: %d ANDs, %d two-AND bundles, %d single, %d slots", tc.width, p.NAND, pairs, singles, p.NSlots)
		if p.NAND != tc.ands || 2*pairs+singles != p.NAND || pairs < tc.pairs {
			t.Fatalf("b=%d: %d two-AND bundles and %d singles of %d ANDs, want %d ANDs and at least %d bundles",
				tc.width, pairs, singles, p.NAND, tc.ands, tc.pairs)
		}
	}
	rng := mrand.New(mrand.NewSource(48))
	total, paired := 0, 0
	for i := 0; i < 200; i++ {
		c := randomNetlist(rng)
		p, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		pairs, _ := bundles(t, p)
		total, paired = total+p.NAND, paired+2*pairs
		s := scheduler{c: c, wires: make([]wire, c.NWires)}
		s.countReaders()
		if peak := s.netlistPeak(p.InputSpan()); p.NSlots > peak {
			t.Fatalf("netlist %d: %d slots, netlist order needs %d", i, p.NSlots, peak)
		}
	}
	if paired < total/2 {
		t.Fatalf("random netlists: %d of %d ANDs paired", paired, total)
	}
}

func TestProgramRejectsInvalidNetlist(t *testing.T) {
	c := &Circuit{NGarbler: 1, NWires: 4, Gates: []Gate{{Op: AND, A: 2, B: 3, Out: 3}}, Outputs: []int{3}}
	if _, err := c.Program(); err == nil {
		t.Fatal("netlist reading an undefined wire was lowered")
	}
	if _, err := c.Program(); err == nil {
		t.Fatal("second call lost the error")
	}
}

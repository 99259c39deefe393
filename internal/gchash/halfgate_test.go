package gchash

import (
	"bytes"
	"fmt"
	"math"
	mrand "math/rand"
	"slices"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// randomLabel draws a label from rng, with bit 127 set half the time so
// the doubling's reduction fires.
func randomLabel(rng *mrand.Rand) label.Label {
	var l label.Label
	rng.Read(l[:])
	return l
}

// randomDelta draws a free-XOR offset from rng.
func randomDelta(rng *mrand.Rand) label.Label {
	d := randomLabel(rng)
	d[0] |= 1 // the permute bit
	return d
}

// slotGate is one AND over a test's label slots and tables.
type slotGate struct{ A, B, Out, Table uint32 }

// bundleCase is one AND, or one two-AND bundle, for the walks.
type bundleCase struct {
	name  string
	gates []slotGate
	tweak uint64
}

// program is tc as a program over nSlots slots and nTables tables: its
// gates as AND instructions, the first Paired when there are two.
func (tc *bundleCase) program(nSlots, nTables int) *circuit.Program {
	p := &circuit.Program{NSlots: nSlots, NAND: nTables}
	for i, g := range tc.gates {
		in := circuit.Instr{A: g.A, B: g.B, Out: g.Out, Tag: circuit.ANDTag | g.Table}
		if i == 0 && len(tc.gates) == 2 {
			in.Tag |= circuit.PairTag
		}
		p.Instrs = append(p.Instrs, in)
	}
	return p
}

// bundleCases draws the gates the kernels are checked on: singles and
// pairs over distinct slots, a gate reading one wire twice, and pairs
// whose second output overwrites a slot the first gate reads, under
// random tweaks and tweaks at the top of the range.
func bundleCases(rng *mrand.Rand, nSlots, nTables int) []bundleCase {
	gate := func() slotGate {
		p := rng.Perm(nSlots)
		return slotGate{A: uint32(p[0]), B: uint32(p[1]), Out: uint32(p[2]), Table: uint32(rng.Intn(nTables))}
	}
	// pair returns two gates where the second reads neither the first's
	// output nor writes a slot the first writes.
	pair := func() []slotGate {
		for {
			g0, g1 := gate(), gate()
			if g1.A != g0.Out && g1.B != g0.Out && g1.Out != g0.Out && g1.Table != g0.Table {
				return []slotGate{g0, g1}
			}
		}
	}
	var cases []bundleCase
	for _, tw := range []uint64{rng.Uint64(), 0, math.MaxUint64 - 2*uint64(nTables), math.MaxUint64 - 1, math.MaxUint64} {
		for i := 0; i < 8; i++ {
			cases = append(cases,
				bundleCase{"single", []slotGate{gate()}, tw},
				bundleCase{"pair", pair(), tw})
		}
		same := gate()
		same.B = same.A
		cases = append(cases, bundleCase{"single a=b", []slotGate{same}, tw})
		for _, onA := range []bool{true, false} {
			g := pair()
			if onA {
				g[1].Out = g[0].A
			} else {
				g[1].Out = g[0].B
			}
			if g[1].Out == g[1].A || g[1].Out == g[1].B {
				continue
			}
			cases = append(cases, bundleCase{fmt.Sprintf("pair, out aliases first's input (a=%v)", onA), g, tw})
		}
	}
	return cases
}

// TestBundleKernelsMatchGeneric: the walks' AND steps are the portable
// one-gate-at-a-time loops bit for bit — slots and tables, every byte —
// on random labels and Δ, for single ANDs and bundles of two, with
// tweaks at the top of the range (T+1 and 2·Index wrapping), and when
// the bundle's second output overwrites an input of the first. The
// evaluated output is also the AND of the chosen values. Under purego,
// or on a CPU without AES-NI, both sides are the portable path.
func TestBundleKernelsMatchGeneric(t *testing.T) { forEachWalk(t, testBundleKernelsMatchGeneric) }

func testBundleKernelsMatchGeneric(t *testing.T) {
	const nSlots, nTables = 6, 4
	h := MustAES()
	rng := mrand.New(mrand.NewSource(48))
	var s ANDBlocks
	for trial := 0; trial < 20; trial++ {
		delta := randomDelta(rng)
		for _, tc := range bundleCases(rng, nSlots, nTables) {
			p := tc.program(nSlots, nTables)
			slots := make([]label.Label, nSlots)
			for i := range slots {
				slots[i] = randomLabel(rng)
			}
			gotSlots, wantSlots := slices.Clone(slots), slices.Clone(slots)
			gotTables, wantTables := make([]byte, nTables*TableStride), make([]byte, nTables*TableStride)
			if err := h.GarbleProgram(&s, p, gotSlots, gotTables, &delta, tc.tweak); err != nil {
				t.Fatal(err)
			}
			h.garbleProgramGo(&s, p.Instrs, wantSlots, wantTables, &delta, tc.tweak)
			if !slices.Equal(gotSlots, wantSlots) || !bytes.Equal(gotTables, wantTables) {
				t.Fatalf("trial %d, %s, tweak %#x: garbling kernel and portable loop disagree", trial, tc.name, tc.tweak)
			}

			// Evaluate on active labels for random values: the FALSE
			// labels the garbler read, flipped by Δ where the value is 1.
			vals := make([]bool, nSlots)
			active := make([]label.Label, nSlots)
			for i := range slots {
				vals[i] = rng.Intn(2) == 1
				active[i] = slots[i]
				if vals[i] {
					active[i].XorInto(&delta, &active[i])
				}
			}
			eGot, eWant := slices.Clone(active), slices.Clone(active)
			if err := h.EvalProgram(&s, p, eGot, gotTables, tc.tweak); err != nil {
				t.Fatal(err)
			}
			h.evalProgramGo(&s, p.Instrs, eWant, gotTables, tc.tweak)
			if !slices.Equal(eGot, eWant) {
				t.Fatalf("trial %d, %s, tweak %#x: evaluation kernel and portable loop disagree", trial, tc.name, tc.tweak)
			}
			for _, g := range tc.gates {
				out := gotSlots[g.Out] // the FALSE output label
				if vals[g.A] && vals[g.B] {
					out.XorInto(&delta, &out)
				}
				if eGot[g.Out] != out {
					t.Fatalf("trial %d, %s: evaluated %v AND %v to neither label of the right value", trial, tc.name, vals[g.A], vals[g.B])
				}
			}
		}
	}
}

// TestBundleKernelsAllocateNothing: a program of a bundle and a single
// AND, garbled and evaluated over scratch already on the heap, costs no
// heap object.
func TestBundleKernelsAllocateNothing(t *testing.T) { forEachWalk(t, testBundleKernelsAllocateNothing) }

func testBundleKernelsAllocateNothing(t *testing.T) {
	h := MustAES()
	s, delta := new(ANDBlocks), new(label.Label)
	w, tables := make([]label.Label, 6), make([]byte, 3*TableStride)
	p := &circuit.Program{NSlots: len(w), NAND: 3, Instrs: []circuit.Instr{
		{A: 0, B: 1, Out: 2, Tag: circuit.ANDTag | circuit.PairTag},
		{A: 3, B: 4, Out: 0, Tag: circuit.ANDTag | 1},
		{A: 2, B: 0, Out: 5},
		{A: 5, B: 1, Out: 3, Tag: circuit.ANDTag | 2},
	}}
	if n := testing.AllocsPerRun(100, func() {
		if h.GarbleProgram(s, p, w, tables, delta, 0) != nil || h.EvalProgram(s, p, w, tables, 0) != nil {
			t.Fatal("walk refused a valid program")
		}
	}); n != 0 {
		t.Fatalf("a walk allocates %.0f objects", n)
	}
}

// randomNetlist is a netlist the builder would not emit: gates reading
// any earlier wire, with repeated operands, dead gates, and inputs wired
// straight to outputs and state.
func randomNetlist(rng *mrand.Rand) *circuit.Circuit {
	nG, nE, nS := 1+rng.Intn(6), 1+rng.Intn(6), rng.Intn(3)
	span := circuit.FirstInput + nG + nE + nS
	nGates := 1 + rng.Intn(300)
	c := &circuit.Circuit{NGarbler: nG, NEvaluator: nE, NState: nS, NWires: span + nGates}
	for i := 0; i < nGates; i++ {
		out := span + i
		pick := func() int {
			if rng.Intn(4) == 0 {
				return rng.Intn(out)
			}
			return out - 1 - rng.Intn(min(out, 12))
		}
		c.Gates = append(c.Gates, circuit.Gate{Op: circuit.Op(rng.Intn(2)), A: pick(), B: pick(), Out: out})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c.Outputs = append(c.Outputs, rng.Intn(c.NWires))
	}
	for i := 0; i < nS; i++ {
		c.StateOuts = append(c.StateOuts, rng.Intn(c.NWires))
	}
	return c
}

// unbundled is p with every bundle split into two single ANDs.
func unbundled(p *circuit.Program) *circuit.Program {
	q := &circuit.Program{Instrs: slices.Clone(p.Instrs), NSlots: p.NSlots, NAND: p.NAND,
		NGarbler: p.NGarbler, NEvaluator: p.NEvaluator, NState: p.NState, Outputs: p.Outputs, StateOuts: p.StateOuts}
	for i := range q.Instrs {
		q.Instrs[i].Tag &^= circuit.PairTag
	}
	return q
}

// TestProgramWalkMatchesPortable: GarbleProgram and EvalProgram — the
// assembly walks on amd64 — give what the portable walks give, byte for
// byte: the garbler's tables and every slot after the walk (its output
// and state labels among them), and the evaluator's slots. The programs
// are the MAC's at b ∈ {8, 16, 32}, signed and unsigned, and 60 random
// netlists', each walked as lowered (bundled) and with its bundles split
// (unbundled), under random and top-of-range tweaks. The evaluated
// outputs and state decode to the netlist's plaintext values.
func TestProgramWalkMatchesPortable(t *testing.T) { forEachWalk(t, testProgramWalkMatchesPortable) }

func testProgramWalkMatchesPortable(t *testing.T) {
	rng := mrand.New(mrand.NewSource(49))
	var circuits []*circuit.Circuit
	for _, width := range []int{8, 16, 32} {
		for _, signed := range []bool{false, true} {
			circuits = append(circuits, circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: signed}))
		}
	}
	for i := 0; i < 60; i++ {
		circuits = append(circuits, randomNetlist(rng))
	}
	h := MustAES()
	var s ANDBlocks
	for ci, c := range circuits {
		lowered, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*circuit.Program{lowered, unbundled(lowered)} {
			for _, tw := range []uint64{rng.Uint64(), math.MaxUint64 - 1} {
				delta := randomDelta(rng)
				slots := make([]label.Label, p.NSlots)
				for i := range slots {
					slots[i] = randomLabel(rng)
				}
				input := slices.Clone(slots[:p.InputSpan()])
				got, want := slices.Clone(slots), slices.Clone(slots)
				gotTables, wantTables := make([]byte, p.NAND*TableStride), make([]byte, p.NAND*TableStride)
				if err := h.GarbleProgram(&s, p, got, gotTables, &delta, tw); err != nil {
					t.Fatal(err)
				}
				h.garbleProgramGo(&s, p.Instrs, want, wantTables, &delta, tw)
				if !slices.Equal(got, want) || !bytes.Equal(gotTables, wantTables) {
					t.Fatalf("circuit %d, tweak %#x: garbling walk and portable walk disagree", ci, tw)
				}

				g, e := randomBits(rng, c.NGarbler), randomBits(rng, c.NEvaluator)
				st := randomBits(rng, c.NState)
				bits := append(append(append([]bool{false, true}, g...), e...), st...)
				active := make([]label.Label, p.NSlots)
				for i, v := range bits {
					active[i] = input[i]
					if v {
						active[i].XorInto(&delta, &active[i])
					}
				}
				eGot, eWant := slices.Clone(active), slices.Clone(active)
				if err := h.EvalProgram(&s, p, eGot, gotTables, tw); err != nil {
					t.Fatal(err)
				}
				h.evalProgramGo(&s, p.Instrs, eWant, gotTables, tw)
				if !slices.Equal(eGot, eWant) {
					t.Fatalf("circuit %d, tweak %#x: evaluation walk and portable walk disagree", ci, tw)
				}
				outs, next, err := c.EvalRound(g, e, st)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range append(outs, next...) {
					slot := append(slices.Clone(p.Outputs), p.StateOuts...)[i]
					l := got[slot]
					if v {
						l.XorInto(&delta, &l)
					}
					if eGot[slot] != l {
						t.Fatalf("circuit %d: result %d evaluated to neither label of %v", ci, i, v)
					}
				}
			}
		}
	}
}

func randomBits(rng *mrand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}

// TestProgramWalkRefusesBadPrograms: a program whose slot or table
// index is out of range, whose tags break the bundle rule, or walked
// over a short slot array or a table block of the wrong size is refused
// with an error by both walks — never a fault — and no slot or table
// byte is written.
func TestProgramWalkRefusesBadPrograms(t *testing.T) {
	forEachWalk(t, testProgramWalkRefusesBadPrograms)
}

func testProgramWalkRefusesBadPrograms(t *testing.T) {
	valid := func() *circuit.Program {
		return &circuit.Program{NSlots: 4, NAND: 2, Instrs: []circuit.Instr{
			{A: 0, B: 1, Out: 2, Tag: circuit.ANDTag | circuit.PairTag},
			{A: 0, B: 1, Out: 3, Tag: circuit.ANDTag | 1},
			{A: 2, B: 3, Out: 0},
		}}
	}
	cases := []struct {
		name   string
		edit   func(p *circuit.Program)
		slots  int
		tables int
	}{
		{"slot a out of range", func(p *circuit.Program) { p.Instrs[2].A = 4 }, 4, 2},
		{"slot b out of range", func(p *circuit.Program) { p.Instrs[0].B = 1 << 31 }, 4, 2},
		{"out slot out of range", func(p *circuit.Program) { p.Instrs[1].Out = 99 }, 4, 2},
		{"no slots", func(p *circuit.Program) { p.NSlots = -1 }, 4, 2},
		{"table index out of range", func(p *circuit.Program) { p.Instrs[1].Tag = circuit.ANDTag | 2 }, 4, 2},
		{"xor with a tag", func(p *circuit.Program) { p.Instrs[2].Tag = circuit.PairTag }, 4, 2},
		{"bundle at the end", func(p *circuit.Program) { p.Instrs = p.Instrs[:1] }, 4, 2},
		{"bundle partner is an xor", func(p *circuit.Program) { p.Instrs[1].Tag = 0 }, 4, 2},
		{"bundle partner reads the first's output", func(p *circuit.Program) { p.Instrs[1].B = 2 }, 4, 2},
		{"short slot array", func(*circuit.Program) {}, 3, 2},
		{"short table block", func(*circuit.Program) {}, 4, 1},
		{"long table block", func(*circuit.Program) {}, 4, 3},
	}
	h := MustAES()
	var s ANDBlocks
	var delta label.Label
	for _, tc := range cases {
		p := valid()
		tc.edit(p)
		slots, tables := make([]label.Label, tc.slots), make([]byte, tc.tables*TableStride)
		if err := h.GarbleProgram(&s, p, slots, tables, &delta, 0); err == nil {
			t.Errorf("%s: garbled", tc.name)
		}
		if err := h.EvalProgram(&s, p, slots, tables, 0); err == nil {
			t.Errorf("%s: evaluated", tc.name)
		}
		if slices.ContainsFunc(slots, func(l label.Label) bool { return !l.IsZero() }) || slices.ContainsFunc(tables, func(b byte) bool { return b != 0 }) {
			t.Errorf("%s: a refused walk wrote a slot or a table", tc.name)
		}
	}
	p := valid()
	if err := h.GarbleProgram(&s, p, make([]label.Label, 4), make([]byte, 2*TableStride), &delta, 0); err != nil {
		t.Fatalf("the valid program was refused: %v", err)
	}
}

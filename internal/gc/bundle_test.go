package gc

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// netlistGarbler garbles the way the walker did before lowering paired
// ANDs into bundles: netlist order, one gate at a time, over one label
// per wire, every AND through HalfGates.GarbleAND behind the Hasher
// interface, the k-th AND in netlist order on table k under tweaks from
// base + 2k. It draws its labels and Δ from its own copy of the
// garbler's random stream.
type netlistGarbler struct {
	p     Params
	delta label.Delta
	rand  *label.DRBG
	next  uint64
}

func (ng *netlistGarbler) garble(t *testing.T, c *circuit.Circuit, x []bool, state0 []label.Label) *Garbled {
	t.Helper()
	w := make([]label.Label, c.NWires)
	span := circuit.FirstInput + c.NGarbler + c.NEvaluator + c.NState
	for i := 0; i < span; i++ {
		if err := label.ReadRandom(ng.rand, &w[i]); err != nil {
			t.Fatal(err)
		}
	}
	stateBase := span - c.NState
	if state0 != nil {
		copy(w[stateBase:], state0)
	}
	res := &Garbled{Material: Material{TweakBase: ng.next, NumTables: c.Stats().ANDs}}
	m := &res.Material
	m.ConstActive = [2]label.Label{w[circuit.Const0], ng.delta.Flip(w[circuit.Const1])}
	for i, v := range x {
		p := label.NewPair(w[circuit.FirstInput+i], ng.delta)
		res.GarblerPairs = append(res.GarblerPairs, p)
		m.GarblerActive = append(m.GarblerActive, p.Get(v))
	}
	for i := 0; i < c.NEvaluator; i++ {
		res.EvalPairs = append(res.EvalPairs, label.NewPair(w[circuit.FirstInput+c.NGarbler+i], ng.delta))
	}
	if state0 == nil && c.NState > 0 {
		m.StateInActive = slices.Clone(w[stateBase:span])
	}
	tweak := ng.next
	for _, g := range c.Gates {
		if g.Op == circuit.XOR {
			w[g.Out] = w[g.A].Xor(w[g.B])
			continue
		}
		out0, rows := ng.p.Scheme.GarbleAND(ng.p.Hash, ng.delta, w[g.A], w[g.B], tweak)
		w[g.Out] = out0
		m.TableBlock = append(m.TableBlock, byte(len(rows)))
		for _, r := range rows {
			m.TableBlock = append(m.TableBlock, r[:]...)
		}
		tweak += ng.p.Scheme.TweaksPerGate()
	}
	res.NextTweak, ng.next = tweak, tweak
	for _, o := range c.Outputs {
		m.OutputPerm = append(m.OutputPerm, w[o].LSB())
		res.OutputPairs = append(res.OutputPairs, label.NewPair(w[o], ng.delta))
	}
	for _, s := range c.StateOuts {
		res.StateOut0 = append(res.StateOut0, w[s])
	}
	return res
}

// netlistEval evaluates m the same way: netlist order, one gate at a
// time, every AND through HalfGates.EvalAND, the k-th AND on table k.
func netlistEval(t *testing.T, p Params, c *circuit.Circuit, m *Material, evalActive, stateActive []label.Label) (outputs, state []label.Label) {
	t.Helper()
	w := make([]label.Label, c.NWires)
	w[circuit.Const0], w[circuit.Const1] = m.ConstActive[0], m.ConstActive[1]
	copy(w[circuit.FirstInput:], m.GarblerActive)
	copy(w[circuit.FirstInput+c.NGarbler:], evalActive)
	if stateActive == nil {
		stateActive = m.StateInActive
	}
	copy(w[circuit.FirstInput+c.NGarbler+c.NEvaluator:], stateActive)
	stride := 1 + p.Scheme.TableSize()*label.Size
	tweak, off := m.TweakBase, 0
	for _, g := range c.Gates {
		if g.Op == circuit.XOR {
			w[g.Out] = w[g.A].Xor(w[g.B])
			continue
		}
		var rows []label.Label
		for r := off + 1; r < off+stride; r += label.Size {
			rows = append(rows, label.Label(m.TableBlock[r:r+label.Size]))
		}
		out, err := p.Scheme.EvalAND(p.Hash, w[g.A], w[g.B], rows, tweak)
		if err != nil {
			t.Fatal(err)
		}
		w[g.Out] = out
		off += stride
		tweak += p.Scheme.TweaksPerGate()
	}
	for _, o := range c.Outputs {
		outputs = append(outputs, w[o])
	}
	for _, s := range c.StateOuts {
		state = append(state, w[s])
	}
	return outputs, state
}

// randomNetlist is a netlist the builder would not emit: gates reading
// any earlier wire, so live ranges are long and uneven, with repeated
// operands, dead gates, and inputs wired straight to outputs and state.
func randomNetlist(rng *mrand.Rand) *circuit.Circuit {
	nG, nE, nS := 1+rng.Intn(6), 1+rng.Intn(6), rng.Intn(3)
	span := circuit.FirstInput + nG + nE + nS
	nGates := 1 + rng.Intn(200)
	c := &circuit.Circuit{NGarbler: nG, NEvaluator: nE, NState: nS, NWires: span + nGates}
	for i := 0; i < nGates; i++ {
		out := span + i
		// Mostly recent wires, sometimes any: a mix of short and long
		// live ranges.
		pick := func() int {
			if rng.Intn(4) == 0 {
				return rng.Intn(out)
			}
			return out - 1 - rng.Intn(min(out, 12))
		}
		op := circuit.XOR
		if rng.Intn(2) == 0 {
			op = circuit.AND
		}
		c.Gates = append(c.Gates, circuit.Gate{Op: op, A: pick(), B: pick(), Out: out})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c.Outputs = append(c.Outputs, rng.Intn(c.NWires))
	}
	for i := 0; i < nS; i++ {
		c.StateOuts = append(c.StateOuts, rng.Intn(c.NWires))
	}
	return c
}

// TestBundledWalkMatchesNetlistOrder: the walkers run the lowered
// program — ANDs paired into bundles, XOR cones pulled ahead, two ANDs a
// kernel call — and must give exactly what one gate at a time in
// netlist order gives: the same tables, label pairs, state labels and
// next tweak from the garbler, and the same output and state labels
// from the evaluator, three chained rounds, over the MAC at b ∈ {4, 8,
// 16, 32}, signed and unsigned, and over random netlists.
func TestBundledWalkMatchesNetlistOrder(t *testing.T) {
	rng := mrand.New(mrand.NewSource(48))
	var circuits []*circuit.Circuit
	for _, width := range []int{4, 8, 16, 32} {
		for _, signed := range []bool{false, true} {
			circuits = append(circuits, circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: signed}))
		}
	}
	for i := 0; i < 40; i++ {
		circuits = append(circuits, randomNetlist(rng))
	}
	// The walk must meet the case the kernels' aliasing rule is for: a
	// bundle whose second output overwrites a slot its first gate reads.
	aliased := 0
	for _, c := range circuits {
		prog, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range prog.Instrs {
			if in.Paired && (prog.Instrs[i+1].Out == in.A || prog.Instrs[i+1].Out == in.B) {
				aliased++
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no bundle overwrites its first gate's input: the aliasing rule goes untested")
	}
	p := DefaultParams()
	for ci, c := range circuits {
		t.Run(fmt.Sprintf("circuit%d", ci), func(t *testing.T) {
			seed := [16]byte{byte(ci), 0x48}
			drbg, err := label.NewDRBG(seed)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGarbler(p, drbg)
			if err != nil {
				t.Fatal(err)
			}
			refRand, err := label.NewDRBG(seed)
			if err != nil {
				t.Fatal(err)
			}
			refDelta, err := label.NewDelta(refRand)
			if err != nil {
				t.Fatal(err)
			}
			ref := &netlistGarbler{p: p, delta: refDelta, rand: refRand}
			e, err := NewEvaluator(p, c)
			if err != nil {
				t.Fatal(err)
			}
			var gState, rState, eState, nState []label.Label
			var plain []bool
			for round := 0; round < 3; round++ {
				x, y := randomBits(rng, c.NGarbler), randomBits(rng, c.NEvaluator)
				got, err := g.Garble(c, GarbleOptions{GarblerInputs: x, State0: gState})
				if err != nil {
					t.Fatal(err)
				}
				want := ref.garble(t, c, x, rState)
				gm, err := MarshalMaterial(&got.Material)
				if err != nil {
					t.Fatal(err)
				}
				wm, err := MarshalMaterial(&want.Material)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gm, wm) {
					t.Fatalf("round %d: bundled material differs from netlist order", round)
				}
				if !slices.Equal(got.EvalPairs, want.EvalPairs) || !slices.Equal(got.GarblerPairs, want.GarblerPairs) ||
					!slices.Equal(got.OutputPairs, want.OutputPairs) || !slices.Equal(got.StateOut0, want.StateOut0) ||
					got.NextTweak != want.NextTweak {
					t.Fatalf("round %d: bundled pairs, state labels or next tweak differ from netlist order", round)
				}

				active := pickActive(got.EvalPairs, y)
				res, err := e.Eval(&got.Material, active, eState)
				if err != nil {
					t.Fatal(err)
				}
				wantOut, wantState := netlistEval(t, p, c, &want.Material, active, nState)
				if !slices.Equal(res.OutputLabels, wantOut) || !slices.Equal(res.StateActive, wantState) {
					t.Fatalf("round %d: bundled evaluation differs from netlist order", round)
				}
				plainOut, plainNext, err := c.EvalRound(x, y, plain)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Outputs, plainOut) {
					t.Fatalf("round %d: decoded %v, plaintext %v", round, res.Outputs, plainOut)
				}
				gState, rState = got.StateOut0, want.StateOut0
				eState, nState = slices.Clone(res.StateActive), wantState
				plain = plainNext
			}
		})
	}
}

package gc

import (
	"bytes"
	"crypto/rand"
	"slices"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// Statistical sanity checks on the garbled material the evaluator
// sees. These are not proofs — the constructions carry their own — but
// they catch implementation mistakes that leak structure: biased
// select bits, non-uniform ciphertext bytes, or correlations between
// a wire's label and its truth value.

func andCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	return b.MustBuild()
}

func TestSelectBitsOfActiveLabelsAreBalanced(t *testing.T) {
	// Over many garblings, the select bit of the garbler's active input
	// label must be ≈50/50 regardless of the plaintext value; a skew
	// would let the evaluator guess inputs from lsb(label).
	c := andCircuit(t)
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2000
	for _, input := range []bool{false, true} {
		ones := 0
		for i := 0; i < trials; i++ {
			gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{input}})
			if err != nil {
				t.Fatal(err)
			}
			if gb.Material.GarblerActive[0].LSB() {
				ones++
			}
		}
		// 6σ band for Binomial(2000, 0.5): 1000 ± 134.
		if ones < 866 || ones > 1134 {
			t.Fatalf("input=%v: %d/%d active labels had select bit 1", input, ones, trials)
		}
	}
}

func TestOutputPermuteBitsAreBalanced(t *testing.T) {
	c := andCircuit(t)
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2000
	ones := 0
	for i := 0; i < trials; i++ {
		gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
		if err != nil {
			t.Fatal(err)
		}
		if gb.Material.OutputPerm[0] {
			ones++
		}
	}
	if ones < 866 || ones > 1134 {
		t.Fatalf("%d/%d output permute bits set", ones, trials)
	}
}

func TestCiphertextBytesLookUniform(t *testing.T) {
	// Garbled-table bytes are AES outputs XOR-ed with labels; every
	// byte position must take many values over repeated garblings.
	c := andCircuit(t)
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var seen [2][label.Size]map[byte]bool
	for r := range seen {
		for i := range seen[r] {
			seen[r][i] = make(map[byte]bool)
		}
	}
	for i := 0; i < 512; i++ {
		gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{i%2 == 0}})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for j, by := range tableRows(t, &gb.Material, 0)[r] {
				seen[r][j][by] = true
			}
		}
	}
	for r := range seen {
		for j := range seen[r] {
			if len(seen[r][j]) < 64 {
				t.Fatalf("table row %d byte %d took only %d values over 512 garblings", r, j, len(seen[r][j]))
			}
		}
	}
}

func TestEvaluatorCannotDistinguishGarblerInputValue(t *testing.T) {
	// The material for input 0 and input 1 must be identically
	// structured: same sizes, same field shapes. (Indistinguishability
	// of the *contents* is the cipher's job; this guards the metadata.)
	c := andCircuit(t)
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb0, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{false}})
	if err != nil {
		t.Fatal(err)
	}
	gb1, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if err != nil {
		t.Fatal(err)
	}
	if gb0.Material.CiphertextBytes() != gb1.Material.CiphertextBytes() {
		t.Fatal("material size depends on the garbler's input value")
	}
	if len(gb0.Material.GarblerActive) != len(gb1.Material.GarblerActive) {
		t.Fatal("label count depends on the garbler's input value")
	}
}

func TestWrongChoiceLabelYieldsGarbage(t *testing.T) {
	// An evaluator who somehow uses the label for the wrong input value
	// must still compute *some* label, but the result decodes to the
	// wrong-value output — there is no partial leak of both rows.
	c := andCircuit(t)
	p := DefaultParams()
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if err != nil {
		t.Fatal(err)
	}
	resTrue, err := Evaluate(p, c, &gb.Material, []label.Label{gb.EvalPairs[0].True}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resFalse, err := Evaluate(p, c, &gb.Material, []label.Label{gb.EvalPairs[0].False}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resTrue.Outputs[0] != true || resFalse.Outputs[0] != false {
		t.Fatalf("AND(1,·) decoded to %v/%v", resTrue.Outputs[0], resFalse.Outputs[0])
	}
	if resTrue.OutputLabels[0] == resFalse.OutputLabels[0] {
		t.Fatal("both input labels produced the same output label")
	}
}

// replayReader is a label stream that serves Δ, then span fresh labels
// for a first garbling, then span labels for a second in which the
// evaluator-input range [evalLo, evalHi) repeats the first garbling's:
// two rows under one Δ sharing the client's input labels.
func replayReader(t *testing.T, span, evalLo, evalHi int) *bytes.Reader {
	t.Helper()
	script := make([]byte, label.Size*(1+2*span))
	if _, err := rand.Read(script); err != nil {
		t.Fatal(err)
	}
	first := script[label.Size:]
	second := first[span*label.Size:]
	copy(second[evalLo*label.Size:evalHi*label.Size], first[evalLo*label.Size:evalHi*label.Size])
	return bytes.NewReader(script)
}

// TestRestartedTweaksCannotRecoverDelta mounts the attack a tweak
// restart under one Δ allows. Two garblings of a MAC round share the
// evaluator's input labels, and the caller asks for tweak 0 both times.
// For a partial-product AND x[j] ∧ y[i] the evaluator-half row is
// H(Y⁰, t+1) ⊕ H(Y¹, t+1) ⊕ X⁰, so if t repeats, the XOR of the two rows
// is X⁰ ⊕ X⁰′. The evaluator holds the active garbler labels Xˣ and
// X′ˣ′; when x ≠ x′ their XOR with the two rows is Δ, and with Δ every
// label of the request. The garbler's cursor moves the second garbling
// to fresh tweaks, so the XOR is noise.
func TestRestartedTweaksCannotRecoverDelta(t *testing.T) {
	const width = 4
	c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width})
	span := circuit.FirstInput + c.NGarbler + c.NEvaluator + c.NState
	evalLo := c.EvaluatorInputWire(0)
	g, err := NewGarbler(DefaultParams(), replayReader(t, span, evalLo, evalLo+c.NEvaluator))
	if err != nil {
		t.Fatal(err)
	}
	// The first AND of a garbler input and an evaluator input, and its
	// table index (the k-th AND owns table k).
	gate, table := -1, 0
	for i, gt := range c.Gates {
		if gt.Op != circuit.AND {
			continue
		}
		if gt.A >= circuit.FirstInput && gt.A < evalLo && gt.B >= evalLo && gt.B < evalLo+c.NEvaluator {
			gate = i
			break
		}
		table++
	}
	if gate < 0 {
		t.Fatal("MAC circuit has no garbler-input × evaluator-input AND")
	}
	j := c.Gates[gate].A - circuit.FirstInput

	zero, ones := circuit.Uint64ToBits(0, width), circuit.Uint64ToBits(1<<width-1, width)
	first, err := g.Garble(c, GarbleOptions{GarblerInputs: zero, TweakBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.Garble(c, GarbleOptions{GarblerInputs: ones, TweakBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.EvalPairs, second.EvalPairs) {
		t.Fatal("the scripted stream did not replay the evaluator-input labels")
	}
	te1 := label.Label(tableRows(t, &first.Material, table)[1])
	te2 := label.Label(tableRows(t, &second.Material, table)[1])
	guess := te1.Xor(te2).Xor(first.Material.GarblerActive[j]).Xor(second.Material.GarblerActive[j])
	if delta := first.GarblerPairs[j].False.Xor(first.GarblerPairs[j].True); guess == delta {
		t.Fatalf("evaluator recovered Δ from two rows garbled under tweak bases %d and %d",
			first.Material.TweakBase, second.Material.TweakBase)
	}
}

// chainRunner returns a garbler and a function that runs one 8-bit MAC
// chain on it, starting from State0 nil as a garble worker does row
// after row, and returns the chain's last garbling and its output.
func chainRunner(t *testing.T) (*Garbler, func(xs, as []uint64) (*Garbled, uint64)) {
	t.Helper()
	c := circuit.MustMAC(circuit.MACConfig{Width: 8, AccWidth: 16})
	p := DefaultParams()
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return g, func(xs, as []uint64) (*Garbled, uint64) {
		var state0, act []label.Label
		var gb *Garbled
		var res *EvalResult
		var err error
		for i := range xs {
			if gb, err = g.Garble(c, GarbleOptions{GarblerInputs: circuit.Uint64ToBits(xs[i], 8), State0: state0}); err != nil {
				t.Fatal(err)
			}
			if res, err = e.Eval(&gb.Material, pickActive(gb.EvalPairs, circuit.Uint64ToBits(as[i], 8)), act); err != nil {
				t.Fatal(err)
			}
			state0, act = gb.StateOut0, res.StateActive
		}
		return gb, circuit.BitsToUint64(res.Outputs)
	}
}

// TestNewChainStartsFromZero runs two MAC chains on one garbler: the
// second, started from State0 nil, accumulates from zero rather than
// from the first chain's result.
func TestNewChainStartsFromZero(t *testing.T) {
	_, chain := chainRunner(t)
	_, got1 := chain([]uint64{3, 5}, []uint64{7, 11})
	if got1 != 3*7+5*11 {
		t.Fatalf("first chain = %d", got1)
	}
	_, got2 := chain([]uint64{2}, []uint64{9})
	if got2 != 18 {
		t.Fatalf("second chain = %d, want 18 (state leaked from the first: %d)", got2, got1)
	}
}

// TestTweaksNeverRepeatAcrossChains runs two MAC chains on one garbler.
// The second chain's tweaks start at or past the first chain's end, and
// an explicit lower TweakBase is raised to the cursor rather than
// honoured.
func TestTweaksNeverRepeatAcrossChains(t *testing.T) {
	g, chain := chainRunner(t)
	gb1, _ := chain([]uint64{3, 5}, []uint64{7, 11})
	gb2, _ := chain([]uint64{2}, []uint64{9})
	c := circuit.MustMAC(circuit.MACConfig{Width: 8, AccWidth: 16})
	if gb2.Material.TweakBase < gb1.NextTweak {
		t.Fatalf("second chain's tweak base %d overlaps the first chain's range ending %d", gb2.Material.TweakBase, gb1.NextTweak)
	}
	gb3, err := g.Garble(c, GarbleOptions{GarblerInputs: make([]bool, 8), TweakBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gb3.Material.TweakBase != gb2.NextTweak {
		t.Fatalf("explicit tweak base 1 yielded %d, want the cursor %d", gb3.Material.TweakBase, gb2.NextTweak)
	}
}

func TestTweakReuseProducesIdenticalTables(t *testing.T) {
	// Documentation of *why* tweak discipline matters: garbling the
	// same wires under the same tweak yields identical ciphertexts, so
	// reuse across rounds would leak equality of label pairs. The
	// garbler's tweak cursor always advances; this test pins the
	// underlying behaviour the cursor protects against.
	h := DefaultParams().Hash
	d := label.MustNewDelta()
	a0 := label.MustRandom()
	b0 := label.MustRandom()
	_, t1 := HalfGates{}.GarbleAND(h, d, a0, b0, 42)
	_, t2 := HalfGates{}.GarbleAND(h, d, a0, b0, 42)
	if t1[0] != t2[0] || t1[1] != t2[1] {
		t.Fatal("same inputs and tweak produced different tables (non-determinism where none expected)")
	}
	_, t3 := HalfGates{}.GarbleAND(h, d, a0, b0, 44)
	if t1[0] == t3[0] {
		t.Fatal("different tweaks produced identical generator rows")
	}
}

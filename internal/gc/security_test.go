package gc

import (
	"crypto/rand"
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

func TestTweakReuseProducesIdenticalTables(t *testing.T) {
	// Documentation of *why* tweak discipline matters: garbling the
	// same wires under the same tweak yields identical ciphertexts, so
	// reuse across rounds would leak equality of label pairs. The
	// sequential sessions always advance tweaks; this test pins the
	// underlying behaviour the discipline protects against.
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

package gc

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
)

func allSchemes() []Scheme { return []Scheme{HalfGates{}, GRR3{}, FourRow{}} }

func params(s Scheme) Params { return Params{Hash: gchash.MustAES(), Scheme: s} }

// TestDefaultParamsSharesOneHasher: the fixed-key hasher is keyed once
// per process, so DefaultParams hands out the same one every call and
// allocates nothing.
func TestDefaultParamsSharesOneHasher(t *testing.T) {
	if gchash.MustAES() != gchash.MustAES() {
		t.Fatal("MustAES returned two hashers")
	}
	var p Params
	if n := testing.AllocsPerRun(100, func() { p = DefaultParams() }); n != 0 {
		t.Fatalf("DefaultParams allocates %.0f objects", n)
	}
	if p.Hash != gchash.MustAES() {
		t.Fatal("DefaultParams hashes with another hasher than MustAES's")
	}
}

// tableRows returns the rows of table k as slices into m.TableBlock,
// whose tables all have the same number of rows.
func tableRows(t *testing.T, m *Material, k int) [][]byte {
	t.Helper()
	if k >= m.NumTables || len(m.TableBlock)%(m.NumTables*label.Size) != 0 {
		t.Fatalf("table %d not in a %d-byte block of %d tables", k, len(m.TableBlock), m.NumTables)
	}
	stride := len(m.TableBlock) / m.NumTables
	rows := make([][]byte, stride/label.Size)
	for r := range rows {
		rows[r] = m.TableBlock[k*stride+r*label.Size : k*stride+(r+1)*label.Size]
	}
	return rows
}

// runGarbled garbles c and evaluates it, returning decoded outputs.
func runGarbled(t *testing.T, s Scheme, c *circuit.Circuit, gIn, eIn []bool) []bool {
	t.Helper()
	p := params(s)
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: gIn})
	if err != nil {
		t.Fatal(err)
	}
	evalActive := make([]label.Label, len(eIn))
	for i, v := range eIn {
		evalActive[i] = gb.EvalPairs[i].Get(v) // stand-in for OT
	}
	res, err := Evaluate(p, c, &gb.Material, evalActive, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the evaluator's decode against the garbler's pairs.
	fromPairs, err := DecodeWithPairs(gb.OutputPairs, res.OutputLabels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromPairs {
		if fromPairs[i] != res.Outputs[i] {
			t.Fatalf("output %d: pair decode %v != perm decode %v", i, fromPairs[i], res.Outputs[i])
		}
	}
	return res.Outputs
}

func TestSingleANDAllSchemes(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	for _, s := range allSchemes() {
		for _, u := range []bool{false, true} {
			for _, v := range []bool{false, true} {
				got := runGarbled(t, s, c, []bool{u}, []bool{v})[0]
				if got != (u && v) {
					t.Fatalf("%s: AND(%v,%v) = %v", s.Name(), u, v, got)
				}
			}
		}
	}
}

func TestXORIsFree(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.XOR(x[0], y[0]), b.NOT(x[0]))
	c := b.MustBuild()
	p := params(HalfGates{})
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if err != nil {
		t.Fatal(err)
	}
	if gb.Material.NumTables != 0 || len(gb.Material.TableBlock) != 0 {
		t.Fatalf("XOR-only circuit produced %d garbled tables (%d bytes), want 0", gb.Material.NumTables, len(gb.Material.TableBlock))
	}
	if gb.Material.CiphertextBytes() != 0 {
		t.Fatal("XOR-only circuit has nonzero ciphertext volume")
	}
}

func TestTableSizesPerScheme(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	want := map[string]int{"half-gates": 2, "grr3": 3, "four-row": 4}
	for _, s := range allSchemes() {
		g, err := NewGarbler(params(s), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{false}})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tableRows(t, &gb.Material, 0)); got != want[s.Name()] {
			t.Fatalf("%s: table has %d rows, want %d", s.Name(), got, want[s.Name()])
		}
		if got := gb.Material.CiphertextBytes(); got != want[s.Name()]*label.Size {
			t.Fatalf("%s: ciphertext volume %d", s.Name(), got)
		}
		if s.TableSize() != want[s.Name()] {
			t.Fatalf("%s: TableSize() = %d", s.Name(), s.TableSize())
		}
	}
}

func TestRandomCircuitsRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	for _, s := range allSchemes() {
		for trial := 0; trial < 8; trial++ {
			// Random circuit with random structure.
			b := circuit.NewBuilder()
			ng, ne := 2+rng.Intn(6), 2+rng.Intn(6)
			gIn := b.GarblerInputs(ng)
			eIn := b.EvaluatorInputs(ne)
			wires := append(append(circuit.Word{}, gIn...), eIn...)
			for i := 0; i < 30; i++ {
				a := wires[rng.Intn(len(wires))]
				c := wires[rng.Intn(len(wires))]
				if rng.Intn(2) == 0 {
					wires = append(wires, b.XOR(a, c))
				} else {
					wires = append(wires, b.AND(a, c))
				}
			}
			for i := 0; i < 4; i++ {
				b.Outputs(wires[len(wires)-1-i])
			}
			c := b.MustBuild()

			gBits := randomBits(rng, ng)
			eBits := randomBits(rng, ne)
			want, err := c.Eval(gBits, eBits)
			if err != nil {
				t.Fatal(err)
			}
			got := runGarbled(t, s, c, gBits, eBits)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s trial %d: output %d = %v, want %v", s.Name(), trial, i, got[i], want[i])
				}
			}
		}
	}
}

func randomBits(rng *mrand.Rand, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	return bits
}

func TestMACCircuitGarbledRoundTrip(t *testing.T) {
	cfg := circuit.MACConfig{Width: 8, AccWidth: 16, Signed: true}
	c, err := circuit.MACCombinational(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		x := int64(rng.Intn(256) - 128)
		acc := int64(rng.Intn(1 << 15))
		a := int64(rng.Intn(256) - 128)
		gIn := append(circuit.Int64ToBits(x, 8), circuit.Int64ToBits(acc, 16)...)
		eIn := circuit.Int64ToBits(a, 8)
		out := runGarbled(t, HalfGates{}, c, gIn, eIn)
		want := (acc + x*a) & (1<<16 - 1)
		if got := circuit.BitsToInt64(out) & (1<<16 - 1); got != want {
			t.Fatalf("garbled MAC = %d, want %d", got, want)
		}
	}
}

func TestSequentialRoundsCarryState(t *testing.T) {
	// Garble the sequential MAC for several rounds, chaining state
	// labels on both sides, and check the accumulator.
	cfg := circuit.MACConfig{Width: 8, AccWidth: 20}
	c := circuit.MustMAC(cfg)
	p := DefaultParams()
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(17))

	var state0 []label.Label   // garbler side
	var stateAct []label.Label // evaluator side
	var want uint64
	for round := 0; round < 6; round++ {
		x := uint64(rng.Intn(256))
		a := uint64(rng.Intn(256))
		want = (want + x*a) & (1<<20 - 1)

		gb, err := g.Garble(c, GarbleOptions{
			GarblerInputs: circuit.Uint64ToBits(x, 8),
			State0:        state0,
		})
		if err != nil {
			t.Fatal(err)
		}
		evalActive := make([]label.Label, c.NEvaluator)
		aBits := circuit.Uint64ToBits(a, 8)
		for i := range evalActive {
			evalActive[i] = gb.EvalPairs[i].Get(aBits[i])
		}
		res, err := Evaluate(p, c, &gb.Material, evalActive, stateAct)
		if err != nil {
			t.Fatal(err)
		}
		if got := circuit.BitsToUint64(res.Outputs); got != want {
			t.Fatalf("round %d: acc = %d, want %d", round, got, want)
		}
		state0 = gb.StateOut0
		stateAct = res.StateActive
	}
}

func TestGarbleInputValidation(t *testing.T) {
	c := circuit.MustMAC(circuit.MACConfig{Width: 4, AccWidth: 8})
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Garble(c, GarbleOptions{GarblerInputs: make([]bool, 3)}); err == nil {
		t.Fatal("wrong garbler input width accepted")
	}
	if _, err := g.Garble(c, GarbleOptions{GarblerInputs: make([]bool, 4), State0: make([]label.Label, 1)}); err == nil {
		t.Fatal("wrong state width accepted")
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	p := DefaultParams()
	g, _ := NewGarbler(p, rand.Reader)
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(p, c, &gb.Material, nil, nil); err == nil {
		t.Fatal("missing evaluator labels accepted")
	}
	active := []label.Label{gb.EvalPairs[0].False}
	// Every way a table block can disagree with the circuit, whether or
	// not the declared count goes along with it.
	block := gb.Material.TableBlock
	threeRows := make([]byte, 3*label.Size)
	for name, tamper := range map[string]func(m *Material){
		"missing tables":             func(m *Material) { m.TableBlock, m.NumTables = nil, 0 },
		"missing tables, count kept": func(m *Material) { m.TableBlock = nil },
		"surplus table":              func(m *Material) { m.TableBlock, m.NumTables = append(append([]byte{}, block...), block...), 2 },
		"surplus table, count kept":  func(m *Material) { m.TableBlock = append(append([]byte{}, block...), block...) },
		"truncated table":            func(m *Material) { m.TableBlock = block[:len(block)-1] },
		"wrong row count":            func(m *Material) { m.TableBlock = threeRows },
		"one row short":              func(m *Material) { m.TableBlock = block[:label.Size] },
		"trailing byte after tables": func(m *Material) { m.TableBlock = append(append([]byte{}, block...), 0) },
		"missing garbler label":      func(m *Material) { m.GarblerActive = nil },
		"surplus output permute bit": func(m *Material) { m.OutputPerm = append([]bool{true}, m.OutputPerm...) },
		"state labels for no state":  func(m *Material) { m.StateInActive = []label.Label{{}} },
	} {
		bad := gb.Material
		tamper(&bad)
		if _, err := Evaluate(p, c, &bad, active, nil); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := Evaluate(p, c, &gb.Material, active, nil); err != nil {
		t.Fatalf("untampered material rejected: %v", err)
	}
}

func TestNewGarblerValidation(t *testing.T) {
	if _, err := NewGarbler(Params{}, rand.Reader); err == nil {
		t.Fatal("empty params accepted")
	}
	if _, err := NewGarbler(DefaultParams(), nil); err == nil {
		t.Fatal("nil random source accepted")
	}
}

func TestDecodeWithPairsDetectsCorruption(t *testing.T) {
	pairs := []label.Pair{label.NewPair(label.MustRandom(), label.MustNewDelta())}
	if _, err := DecodeWithPairs(pairs, []label.Label{label.MustRandom()}); err == nil {
		t.Fatal("foreign label decoded")
	}
	if _, err := DecodeWithPairs(pairs, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	got, err := DecodeWithPairs(pairs, []label.Label{pairs[0].True})
	if err != nil || !got[0] {
		t.Fatalf("true label decoded as %v, %v", got, err)
	}
}

func TestTamperedTableChangesOutputLabel(t *testing.T) {
	// Flipping ciphertext bits must not silently yield a valid label:
	// the garbler-side pair decode detects it.
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	p := DefaultParams()
	g, _ := NewGarbler(p, rand.Reader)
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if err != nil {
		t.Fatal(err)
	}
	tableRows(t, &gb.Material, 0)[0][3] ^= 0x40 // corrupt the generator-half row
	res, err := Evaluate(p, c, &gb.Material, []label.Label{gb.EvalPairs[0].True}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, decodeErr := DecodeWithPairs(gb.OutputPairs, res.OutputLabels)
	// The generator-half row T_G is XOR-ed in only when the select bit
	// of wire a's active label is 1; otherwise the corruption is
	// harmlessly skipped this run.
	rowActive := gb.Material.GarblerActive[0].LSB()
	if rowActive && decodeErr == nil {
		t.Fatal("tampered active row still produced a valid output label")
	}
	if !rowActive && decodeErr != nil {
		t.Fatalf("tampered inactive row corrupted the output: %v", decodeErr)
	}
}

func TestDifferentDeltasProduceDifferentMaterial(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	p := DefaultParams()
	g1, _ := NewGarbler(p, rand.Reader)
	g2, _ := NewGarbler(p, rand.Reader)
	if g1.delta.Label() == g2.delta.Label() {
		t.Fatal("two garblers drew the same delta")
	}
	gb1, _ := g1.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	gb2, _ := g2.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if bytes.Equal(tableRows(t, &gb1.Material, 0)[0], tableRows(t, &gb2.Material, 0)[0]) {
		t.Fatal("independent garblings produced identical ciphertexts")
	}
}

func TestFreshLabelsPerGarble(t *testing.T) {
	// §3: "even if the model does not change, new labels are required
	// for every garbling operation to ensure security."
	b := circuit.NewBuilder()
	x := b.GarblerInputs(1)
	y := b.EvaluatorInputs(1)
	b.Outputs(b.AND(x[0], y[0]))
	c := b.MustBuild()
	g, _ := NewGarbler(DefaultParams(), rand.Reader)
	gb1, _ := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	gb2, _ := g.Garble(c, GarbleOptions{GarblerInputs: []bool{true}})
	if gb1.Material.GarblerActive[0] == gb2.Material.GarblerActive[0] {
		t.Fatal("re-garbling reused input labels")
	}
}

func TestSchemesAgreeOnRandomMAC(t *testing.T) {
	cfg := circuit.MACConfig{Width: 6, AccWidth: 12}
	c, err := circuit.MACCombinational(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(23))
	x := uint64(rng.Intn(64))
	acc := uint64(rng.Intn(1 << 12))
	a := uint64(rng.Intn(64))
	gIn := append(circuit.Uint64ToBits(x, 6), circuit.Uint64ToBits(acc, 12)...)
	eIn := circuit.Uint64ToBits(a, 6)
	want := (acc + x*a) & (1<<12 - 1)
	for _, s := range allSchemes() {
		out := runGarbled(t, s, c, gIn, eIn)
		if got := circuit.BitsToUint64(out); got != want {
			t.Fatalf("%s: MAC = %d, want %d", s.Name(), got, want)
		}
	}
}

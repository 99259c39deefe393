package gc

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"encoding/binary"
	"math"
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
//
// The lanes cases mount it on a request's rows: four one-round rows
// under the request's one Δ, striped over 1, 2 and 4 lanes, every row
// drawing the same evaluator-input labels. Each row hashes in its own
// row-indexed range, so no pair of rows recovers Δ. The control garbles
// row 0 on two lanes — the one way to repeat a row's tweaks, which the
// stripe never takes — and the attack succeeds.
func TestRestartedTweaksCannotRecoverDelta(t *testing.T) {
	const width = 4
	c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width})
	span := circuit.FirstInput + c.NGarbler + c.NEvaluator + c.NState
	evalLo := c.EvaluatorInputWire(0)
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
	// recovers reports whether the evaluator of both garblings learns Δ.
	recovers := func(first, second *Garbled, delta label.Label) bool {
		t.Helper()
		if !slices.Equal(first.EvalPairs, second.EvalPairs) {
			t.Fatal("the scripted stream did not replay the evaluator-input labels")
		}
		te1 := label.Label(tableRows(t, &first.Material, table)[1])
		te2 := label.Label(tableRows(t, &second.Material, table)[1])
		return te1.Xor(te2).Xor(first.Material.GarblerActive[j]).Xor(second.Material.GarblerActive[j]) == delta
	}

	g, err := NewGarbler(DefaultParams(), replayReader(t, span, evalLo, evalLo+c.NEvaluator))
	if err != nil {
		t.Fatal(err)
	}
	zero, ones := circuit.Uint64ToBits(0, width), circuit.Uint64ToBits(1<<width-1, width)
	first, err := g.Garble(c, GarbleOptions{GarblerInputs: zero, TweakBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	second, err := g.Garble(c, GarbleOptions{GarblerInputs: ones, TweakBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	if recovers(first, second, g.deltaLabel) {
		t.Fatalf("evaluator recovered Δ from two rows garbled under tweak bases %d and %d",
			first.Material.TweakBase, second.Material.TweakBase)
	}

	// A lane whose evaluator-input labels repeat every round's script.
	evalScript := make([]label.Label, c.NEvaluator)
	for i := range evalScript {
		evalScript[i] = label.MustRandom()
	}
	req, err := NewRequest(DefaultParams(), c, 1, [16]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	lane := func() *Lane {
		l := req.Lane()
		l.g.rand = &repeatEvalLabels{span: span, evalLo: evalLo, eval: evalScript}
		return l
	}
	garble := func(l *Lane, row int, x int64) *Garbled {
		t.Helper()
		var gb *Garbled
		if err := l.GarbleRow(row, []int64{x}, func(_ int, g *Garbled) error { gb = g; return nil }); err != nil {
			t.Fatal(err)
		}
		return gb
	}
	for _, lanes := range []int{1, 2, 4} {
		ls := make([]*Lane, lanes)
		for h := range ls {
			ls[h] = lane()
		}
		rows := make([]*Garbled, 4)
		for i := range rows {
			rows[i] = garble(ls[i%lanes], i, int64(i%2)*(1<<width-1)) // x alternates 0 and 2^width − 1
		}
		for a := range rows {
			for b := a + 1; b < len(rows); b += 2 { // the pairs with x ≠ x′
				if recovers(rows[a], rows[b], req.delta.Label()) {
					t.Fatalf("lanes=%d: evaluator recovered Δ from rows %d and %d (tweak bases %d, %d)",
						lanes, a, b, rows[a].Material.TweakBase, rows[b].Material.TweakBase)
				}
			}
		}
	}
	l0, l1 := lane(), lane()
	if !recovers(garble(l0, 0, 0), garble(l1, 0, 1<<width-1), req.delta.Label()) {
		t.Fatal("control: two lanes garbling row 0 under one tweak base did not leak Δ; the attack above proves nothing")
	}
}

// repeatEvalLabels is a lane's label stream for the attack above: fresh
// random labels, except that the evaluator-input slots [evalLo,
// evalLo+len(eval)) of every span-label round are eval.
type repeatEvalLabels struct {
	span, evalLo int
	eval         []label.Label
	n            int
}

func (r *repeatEvalLabels) Read(p []byte) (int, error) {
	for off := 0; off < len(p); off += label.Size {
		if k := r.n%r.span - r.evalLo; k >= 0 && k < len(r.eval) {
			copy(p[off:], r.eval[k][:])
		} else if _, err := rand.Read(p[off : off+label.Size]); err != nil {
			return off, err
		}
		r.n++
	}
	return len(p), nil
}

// TestRequestTweaksNeverRepeatAcrossRows: a request's rows hash in
// disjoint tweak ranges — row i's rounds from i·Cols·ANDs·TweaksPerGate,
// whichever lane garbles it — at 1, 2 and 4 lanes, and a lane refuses a
// row at or below one it has garbled.
func TestRequestTweaksNeverRepeatAcrossRows(t *testing.T) {
	c := circuit.MustMAC(circuit.MACConfig{Width: 4, AccWidth: 8, Signed: true})
	const rows, cols = 6, 3
	ands := uint64(c.Stats().ANDs)
	tpg := DefaultParams().Scheme.TweaksPerGate()
	for _, lanes := range []int{1, 2, 4} {
		req, err := NewRequest(DefaultParams(), c, cols, [16]byte{9})
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]*Lane, lanes)
		for h := range ls {
			ls[h] = req.Lane()
		}
		type span struct{ lo, hi uint64 }
		var used []span
		for i := 0; i < rows; i++ {
			err := ls[i%lanes].GarbleRow(i, []int64{1, -2, 3}, func(r int, gb *Garbled) error {
				lo := gb.Material.TweakBase
				if want := (uint64(i)*cols + uint64(r)) * ands * tpg; lo != want {
					t.Fatalf("lanes=%d row %d round %d: tweak base %d, want %d", lanes, i, r, lo, want)
				}
				used = append(used, span{lo, gb.NextTweak})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		slices.SortFunc(used, func(a, b span) int { return int(a.lo) - int(b.lo) })
		for k := 1; k < len(used); k++ {
			if used[k].lo < used[k-1].hi {
				t.Fatalf("lanes=%d: tweak ranges [%d, %d) and [%d, %d) overlap",
					lanes, used[k-1].lo, used[k-1].hi, used[k].lo, used[k].hi)
			}
		}
		last := ls[(rows-1)%lanes]
		for _, row := range []int{rows - 1, rows - 1 - lanes} {
			if err := last.GarbleRow(row, []int64{0, 0, 0}, func(int, *Garbled) error { return nil }); err == nil {
				t.Fatalf("lanes=%d: a lane garbled row %d after row %d", lanes, row, rows-1)
			}
		}
	}
}

// TestRequestColumnLabelsShared: label n of every row's round j is the
// column domain's AES_k(2⁶⁴−2 ‖ j·NEvaluator + n), whichever lane
// garbles the row, so every row's round j has the same EvalPairs and
// one OT serves them all. That high word lies above every row index a
// lane admits (a non-negative int) and below Δ's, and j·NEvaluator + n
// stays below 2⁶⁴ for every request NewRequest admits, so no column
// label is a row label or Δ: a round at the top of the column range is
// garbled, evaluated and checked against both. AppendEvalPairs, which
// the batched OT reads before any row is garbled, is every row's round-j
// EvalPairs in round order, appended behind what dst holds.
func TestRequestColumnLabelsShared(t *testing.T) {
	if !(uint64(math.MaxInt) < columnDomain && columnDomain < deltaDomain) {
		t.Fatalf("domains: largest row %d, columns %d, Δ %d", math.MaxInt, uint64(columnDomain), uint64(deltaDomain))
	}
	c := circuit.MustMAC(circuit.MACConfig{Width: 4, AccWidth: 8, Signed: true})
	nEval := uint64(c.NEvaluator)
	seed := [16]byte{7}
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	columnLabel := func(ctr uint64) label.Label {
		var in [label.Size]byte
		var out label.Label
		binary.BigEndian.PutUint64(in[:8], columnDomain)
		binary.BigEndian.PutUint64(in[8:], ctr)
		block.Encrypt(out[:], in[:])
		return out
	}

	const rows, cols = 5, 3
	for _, lanes := range []int{1, 2} {
		req, err := NewRequest(DefaultParams(), c, cols, seed)
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]*Lane, lanes)
		for h := range ls {
			ls[h] = req.Lane()
		}
		head := label.Pair{False: label.Label{1}, True: label.Label{2}}
		pairs := req.AppendEvalPairs([]label.Pair{head})
		if len(pairs) != 1+cols*int(nEval) || pairs[0] != head {
			t.Fatalf("lanes=%d: AppendEvalPairs gave %d pairs behind %v, want %d behind %v", lanes, len(pairs)-1, pairs[0], cols*nEval, head)
		}
		pairs = pairs[1:]
		var row0 [cols][]label.Pair
		for i := 0; i < rows; i++ {
			err := ls[i%lanes].GarbleRow(i, []int64{1, -2, 3}, func(r int, gb *Garbled) error {
				for n, p := range gb.EvalPairs {
					if want := columnLabel(uint64(r)*nEval + uint64(n)); p.False != want {
						t.Fatalf("lanes=%d row %d round %d: evaluator label %d is not the column domain's", lanes, i, r, n)
					}
				}
				if !slices.Equal(gb.EvalPairs, pairs[uint64(r)*nEval:uint64(r+1)*nEval]) {
					t.Fatalf("lanes=%d row %d round %d: EvalPairs differ from AppendEvalPairs' round %d", lanes, i, r, r)
				}
				if i == 0 {
					row0[r] = slices.Clone(gb.EvalPairs)
				} else if !slices.Equal(gb.EvalPairs, row0[r]) {
					t.Fatalf("lanes=%d: row %d round %d's EvalPairs differ from row 0's", lanes, i, r)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// The largest request NewRequest admits ends its column range at
	// most NEvaluator − 1 below 2⁶⁴; one more round is refused.
	top := math.MaxUint64 / nEval
	if _, err := NewRequest(DefaultParams(), c, int(top+1), seed); err == nil {
		t.Fatalf("a request of %d rounds overflows the column counter but was admitted", top+1)
	}
	big, err := NewRequest(DefaultParams(), c, int(top), seed)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := big.Lane().garbleRound(int(top-1), 3, nil) // row 0's round top−1, on a fresh lane
	if err != nil {
		t.Fatal(err)
	}
	rowLabels := []label.Label{gb.Material.ConstActive[0]}
	for _, p := range gb.GarblerPairs {
		rowLabels = append(rowLabels, p.False)
	}
	rowLabels = append(rowLabels, gb.Material.StateInActive...)
	for n, p := range gb.EvalPairs {
		ctr := (top-1)*nEval + uint64(n)
		if ctr < (top-1)*nEval || p.False != columnLabel(ctr) {
			t.Fatalf("top round: evaluator label %d is not AES_k(2⁶⁴−2 ‖ %d)", n, ctr)
		}
		if p.False == big.delta.Label() || p.True == big.delta.Label() || slices.Contains(rowLabels, p.False) {
			t.Fatalf("top round: evaluator label %d is Δ or one of the row's labels", n)
		}
	}
	ev, err := NewEvaluator(DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	y := int64(-5)
	active := make([]label.Label, len(gb.EvalPairs))
	for n, p := range gb.EvalPairs {
		active[n] = p.Get(uint64(y)>>n&1 == 1)
	}
	res, err := ev.Eval(&gb.Material, active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.BitsToInt64(res.Outputs); got != 3*y {
		t.Fatalf("top round decodes %d, want %d", got, 3*y)
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

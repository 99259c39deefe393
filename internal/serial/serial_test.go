package serial

import (
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// stages returns a function that garbles and evaluates the next stage
// of ckt and returns its decoded outputs: one garbler and one evaluator
// for the whole run, the state carried between stages as labels on both
// sides, the sequential GC the FSM performs.
func stages(t *testing.T, ckt *circuit.Circuit) func(garbler, evaluator []bool) []bool {
	t.Helper()
	p := gc.DefaultParams()
	g, err := gc.NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := gc.NewEvaluator(p, ckt)
	if err != nil {
		t.Fatal(err)
	}
	var state0, stateAct []label.Label
	return func(garbler, evaluator []bool) []bool {
		t.Helper()
		gb, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: garbler, State0: state0})
		if err != nil {
			t.Fatal(err)
		}
		active := make([]label.Label, len(evaluator))
		for i, v := range evaluator {
			active[i] = gb.EvalPairs[i].Get(v)
		}
		res, err := ev.Eval(&gb.Material, active, stateAct)
		if err != nil {
			t.Fatal(err)
		}
		state0, stateAct = gb.StateOut0, res.StateActive
		return res.Outputs
	}
}

func TestMACValidation(t *testing.T) {
	for _, b := range []int{0, 2, 3, 6, 10, 12} {
		if _, _, err := MAC(b); err == nil {
			t.Fatalf("width %d accepted", b)
		}
	}
}

func TestLayoutCounts(t *testing.T) {
	for _, b := range []int{4, 8, 16} {
		ckt, l := MustMAC(b)
		if l.ANDsPerStage != 2*b {
			t.Fatalf("b=%d: %d ANDs per stage, want %d", b, l.ANDsPerStage, 2*b)
		}
		if l.StagesPerMAC != 2*b+2 {
			t.Fatalf("b=%d: %d stages per MAC", b, l.StagesPerMAC)
		}
		// State: aPrev + b/2 carries + (b/2)(b/2−1) delays + b/2−1 tree
		// carries + (2b+2) acc + 1 acc carry.
		half := b / 2
		wantState := 1 + half + half*(half-1) + (half - 1) + (2*b + 2) + 1
		if ckt.NState != wantState {
			t.Fatalf("b=%d: %d state bits, want %d", b, ckt.NState, wantState)
		}
		if l.StateBits != wantState {
			t.Fatalf("b=%d: layout reports %d state bits", b, l.StateBits)
		}
	}
}

func TestSingleMACExhaustiveSmall(t *testing.T) {
	ckt, l := MustMAC(4)
	for x := uint64(0); x < 16; x++ {
		for a := uint64(0); a < 16; a++ {
			got, err := RunPlain(ckt, l, []uint64{x}, []uint64{a})
			if err != nil {
				t.Fatal(err)
			}
			if got != x*a {
				t.Fatalf("serial 4-bit %d·%d = %d, want %d", x, a, got, x*a)
			}
		}
	}
}

func TestSingleMACRandom8(t *testing.T) {
	ckt, l := MustMAC(8)
	rng := mrand.New(mrand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		x := uint64(rng.Intn(256))
		a := uint64(rng.Intn(256))
		got, err := RunPlain(ckt, l, []uint64{x}, []uint64{a})
		if err != nil {
			t.Fatal(err)
		}
		if got != x*a {
			t.Fatalf("serial 8-bit %d·%d = %d, want %d", x, a, got, x*a)
		}
	}
}

func TestAccumulationAcrossRounds(t *testing.T) {
	ckt, l := MustMAC(8)
	rng := mrand.New(mrand.NewSource(2))
	const rounds = 6
	xs := make([]uint64, rounds)
	as := make([]uint64, rounds)
	var want uint64
	for i := range xs {
		xs[i] = uint64(rng.Intn(256))
		as[i] = uint64(rng.Intn(256))
		want += xs[i] * as[i]
	}
	got, err := RunPlain(ckt, l, xs, as)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("serial dot product = %d, want %d", got, want)
	}
}

func TestEdgeOperands(t *testing.T) {
	ckt, l := MustMAC(8)
	cases := [][2]uint64{{0, 0}, {255, 255}, {255, 1}, {1, 255}, {128, 128}, {0, 255}}
	for _, c := range cases {
		got, err := RunPlain(ckt, l, []uint64{c[0]}, []uint64{c[1]})
		if err != nil {
			t.Fatal(err)
		}
		if got != c[0]*c[1] {
			t.Fatalf("%d·%d = %d", c[0], c[1], got)
		}
	}
}

func TestPipelineFlushesBetweenRounds(t *testing.T) {
	// A round of zeros after a busy round must leave the accumulator
	// unchanged: no residue leaks across round boundaries.
	ckt, l := MustMAC(8)
	got, err := RunPlain(ckt, l, []uint64{200, 0, 13}, []uint64{210, 0, 17})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(200*210 + 13*17); got != want {
		t.Fatalf("flush test = %d, want %d", got, want)
	}
}

func TestStateClearsAfterFlush(t *testing.T) {
	// After a full round, every state bit except the accumulator (and
	// the aPrev bit, which holds the last streamed zero) must be zero.
	ckt, l := MustMAC(8)
	xBits := circuit.Uint64ToBits(251, 8)
	var state []bool
	for n := 0; n < l.StagesPerMAC; n++ {
		_, next, err := ckt.EvalRound(xBits, l.StageInputs(163, n), state)
		if err != nil {
			t.Fatal(err)
		}
		state = next
	}
	half := 8 / 2
	nonAcc := 1 + half + half*(half-1) + (half - 1)
	for i := 0; i < nonAcc; i++ {
		if state[i] {
			t.Fatalf("state bit %d (pre-accumulator region) still set after flush", i)
		}
	}
	// Accumulator must hold 251·163.
	accBits := state[nonAcc : nonAcc+l.AccLen]
	if got := circuit.BitsToUint64(accBits); got != 251*163 {
		t.Fatalf("accumulator state = %d, want %d", got, 251*163)
	}
}

func TestStageInputs(t *testing.T) {
	_, l := MustMAC(8)
	a := uint64(0b10110101)
	for n := 0; n < 8; n++ {
		want := a>>uint(n)&1 == 1
		if got := l.StageInputs(a, n)[0]; got != want {
			t.Fatalf("stage %d input = %v", n, got)
		}
	}
	for n := 8; n < l.StagesPerMAC; n++ {
		if l.StageInputs(a, n)[0] {
			t.Fatalf("flush stage %d streamed a one", n)
		}
	}
}

func TestRunPlainValidation(t *testing.T) {
	ckt, l := MustMAC(4)
	if _, err := RunPlain(ckt, l, []uint64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RunPlain(ckt, l, []uint64{16}, []uint64{1}); err == nil {
		t.Fatal("oversized operand accepted")
	}
}

func TestGarbledSerialMAC(t *testing.T) {
	// The headline integration: garble the bit-serial datapath stage
	// by stage through sequential GC and verify the evaluator's
	// decoded accumulator. This is the closest software analogue of
	// the FSM-driven hardware: one small circuit, re-garbled per
	// stage, state carried as labels.
	ckt, l := MustMAC(4)
	next := stages(t, ckt)

	xs := []uint64{13, 7}
	as := []uint64{11, 15}
	want := 13*11 + 7*15

	var lastRound []bool
	for r := range xs {
		xBits := circuit.Uint64ToBits(xs[r], l.Width)
		lastRound = lastRound[:0]
		for n := 0; n < l.StagesPerMAC; n++ {
			lastRound = append(lastRound, next(xBits, l.StageInputs(as[r], n))[0])
		}
	}
	if got := circuit.BitsToUint64(lastRound); got != uint64(want) {
		t.Fatalf("garbled serial dot product = %d, want %d", got, want)
	}
}

func TestGarbledTableCountMatchesSchedule(t *testing.T) {
	// Every garbled stage must cost exactly 2b AND tables — the FSM
	// slot grid minus the 8 signed-support ops this unsigned datapath
	// omits.
	ckt, l := MustMAC(8)
	g, err := gc.NewGarbler(gc.DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: circuit.Uint64ToBits(99, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if got := gb.Material.NumTables; got != l.ANDsPerStage || got != 16 {
		t.Fatalf("stage produced %d tables, want %d", got, l.ANDsPerStage)
	}
}

func BenchmarkSerialStageGarbling(b *testing.B) {
	ckt, l := MustMAC(8)
	g, err := gc.NewGarbler(gc.DefaultParams(), label.MustSystemDRBG())
	if err != nil {
		b.Fatal(err)
	}
	opts := gc.GarbleOptions{GarblerInputs: circuit.Uint64ToBits(170, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb, err := g.Garble(ckt, opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.State0 = gb.StateOut0
	}
	b.ReportMetric(float64(l.ANDsPerStage), "tables/stage")
}

package circuit

import (
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestReLU(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	b.EvaluatorInputs(0)
	b.OutputWord(b.ReLU(x))
	c := b.MustBuild()
	f := func(v int8) bool {
		bits, err := c.Eval(Int64ToBits(int64(v), w), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(v)
		if want < 0 {
			want = 0
		}
		return BitsToInt64(bits) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReLUCostOneANDPerBit(t *testing.T) {
	// One AND per bit below the sign: the sign bit's own select is
	// AND(s, s), which the builder folds, so 16 bits cost 15.
	b := NewBuilder()
	x := b.GarblerInputs(16)
	b.EvaluatorInputs(0)
	b.OutputWord(b.ReLU(x))
	if got := b.MustBuild().Stats().ANDs; got != 15 {
		t.Fatalf("16-bit ReLU uses %d ANDs, want 15", got)
	}
}

// TestSignedMinMax checks geqSigned, ArgMax's comparator, by selecting
// the signed maximum and minimum with it.
func TestSignedMinMax(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	ge := b.geqSigned(x, y)
	b.OutputWord(b.Mux(ge, x, y))
	b.OutputWord(b.Mux(ge, y, x))
	c := b.MustBuild()
	f := func(xv, yv int8) bool {
		bits, err := c.Eval(Int64ToBits(int64(xv), w), Int64ToBits(int64(yv), w))
		if err != nil {
			t.Fatal(err)
		}
		mx, mn := int64(xv), int64(yv)
		if mn > mx {
			mx, mn = mn, mx
		}
		return BitsToInt64(bits[:w]) == mx && BitsToInt64(bits[w:]) == mn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgMax(t *testing.T) {
	const w = 8
	rng := mrand.New(mrand.NewSource(6))
	for _, n := range []int{1, 2, 3, 5, 8} {
		b := NewBuilder()
		cands := make([]Word, n)
		for i := range cands {
			cands[i] = b.GarblerInputs(w)
		}
		b.EvaluatorInputs(0)
		b.OutputWord(b.ArgMax(cands))
		c := b.MustBuild()
		for trial := 0; trial < 10; trial++ {
			var g []bool
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(rng.Intn(256) - 128)
				g = append(g, Int64ToBits(vals[i], w)...)
			}
			wantIdx := 0
			for i, v := range vals {
				if v > vals[wantIdx] {
					wantIdx = i
				}
			}
			bits, err := c.Eval(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := BitsToUint64(bits); got != uint64(wantIdx) {
				t.Fatalf("n=%d vals=%v: argmax = %d, want %d", n, vals, got, wantIdx)
			}
		}
	}
}

func TestArgMaxTiesPickLowerIndex(t *testing.T) {
	const w = 6
	b := NewBuilder()
	cands := make([]Word, 4)
	for i := range cands {
		cands[i] = b.GarblerInputs(w)
	}
	b.EvaluatorInputs(0)
	b.OutputWord(b.ArgMax(cands))
	c := b.MustBuild()
	var g []bool
	for range cands {
		g = append(g, Int64ToBits(5, w)...) // all equal
	}
	bits, err := c.Eval(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := BitsToUint64(bits); got != 0 {
		t.Fatalf("all-ties argmax = %d, want 0", got)
	}
}

func TestMLPanicsOnBadShapes(t *testing.T) {
	for name, f := range map[string]func(b *Builder){
		"ReLU-empty":   func(b *Builder) { b.ReLU(Word{}) },
		"ArgMax-empty": func(b *Builder) { b.ArgMax(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			b := NewBuilder()
			b.GarblerInputs(4)
			f(b)
		}()
	}
}

package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDivModMatchesIntegerDivision(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	q, r := b.DivMod(x, y)
	b.OutputWord(q)
	b.OutputWord(r)
	c := b.MustBuild()
	f := func(xv, yv uint8) bool {
		if yv == 0 {
			return true // checked separately
		}
		bits, err := c.Eval(Uint64ToBits(uint64(xv), w), Uint64ToBits(uint64(yv), w))
		if err != nil {
			t.Fatal(err)
		}
		return BitsToUint64(bits[:w]) == uint64(xv/yv) && BitsToUint64(bits[w:2*w]) == uint64(xv%yv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivModByZeroConvention(t *testing.T) {
	const w = 6
	b := NewBuilder()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	q, r := b.DivMod(x, y)
	b.OutputWord(q)
	b.OutputWord(r)
	c := b.MustBuild()
	bits, err := c.Eval(Uint64ToBits(42, w), Uint64ToBits(0, w))
	if err != nil {
		t.Fatal(err)
	}
	if got := BitsToUint64(bits[:w]); got != (1<<w)-1 {
		t.Fatalf("x/0 quotient = %d, want all-ones", got)
	}
	if got := BitsToUint64(bits[w:]); got != 42 {
		t.Fatalf("x/0 remainder = %d, want x", got)
	}
}

func TestDivExhaustiveSmall(t *testing.T) {
	const w = 4
	b := NewBuilder()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	q, _ := b.DivMod(x, y)
	b.OutputWord(q)
	c := b.MustBuild()
	for xv := uint64(0); xv < 16; xv++ {
		for yv := uint64(1); yv < 16; yv++ {
			bits, err := c.Eval(Uint64ToBits(xv, w), Uint64ToBits(yv, w))
			if err != nil {
				t.Fatal(err)
			}
			if got := BitsToUint64(bits); got != xv/yv {
				t.Fatalf("%d/%d = %d, want %d", xv, yv, got, xv/yv)
			}
		}
	}
}

func TestDivisionPanicsOnEmptyWords(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty division did not panic")
		}
	}()
	b := NewBuilder()
	b.GarblerInputs(1)
	b.DivMod(Word{}, Word{})
}

func TestSqrtExhaustive8(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	b.EvaluatorInputs(0)
	root := b.Sqrt(x)
	if len(root) != w/2 {
		t.Fatalf("sqrt output width %d, want %d", len(root), w/2)
	}
	b.OutputWord(root)
	c := b.MustBuild()
	for v := uint64(0); v < 256; v++ {
		bits, err := c.Eval(Uint64ToBits(v, w), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(math.Sqrt(float64(v)))
		for (want+1)*(want+1) <= v {
			want++
		}
		for want*want > v {
			want--
		}
		if got := BitsToUint64(bits); got != want {
			t.Fatalf("sqrt(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestSqrtRandom16(t *testing.T) {
	const w = 16
	b := NewBuilder()
	x := b.GarblerInputs(w)
	b.EvaluatorInputs(0)
	b.OutputWord(b.Sqrt(x))
	c := b.MustBuild()
	f := func(v uint16) bool {
		bits, err := c.Eval(Uint64ToBits(uint64(v), w), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := BitsToUint64(bits)
		return got*got <= uint64(v) && (got+1)*(got+1) > uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSqrtPanicsOnOddWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd-width sqrt did not panic")
		}
	}()
	b := NewBuilder()
	x := b.GarblerInputs(5)
	b.Sqrt(x)
}

func TestDivisionANDCountQuadratic(t *testing.T) {
	// Restoring division costs Θ(w²) AND gates — the reason [7] keeps
	// divisions off the GC critical path where it can. Verify the cost
	// class so the case-study models can rely on it.
	count := func(w int) int {
		b := NewBuilder()
		x := b.GarblerInputs(w)
		y := b.EvaluatorInputs(w)
		q, _ := b.DivMod(x, y)
		b.OutputWord(q)
		return b.MustBuild().Stats().ANDs
	}
	c8, c16 := count(8), count(16)
	if ratio := float64(c16) / float64(c8); ratio < 3 || ratio > 5 {
		t.Fatalf("division cost ratio 16/8 = %.2f, want ≈4 (quadratic)", ratio)
	}
}

// TestDivSqrtANDCounts pins the b=16 blocks the ridge ops model prices
// (816 and 432 ANDs when comparison and difference were two adders).
// Each iteration's comparison is the borrow of its own subtraction, so
// one (w+1)-bit AddCarry and a mux cost it; the zero-padded high bits
// fold. A quotient-only caller such as RidgeOps builds the same 543,
// 32 of them remainder logic it leaves dead. Sqrt costs 264. (DivMod
// was 544 and Sqrt 280 until an adder bit with two constant addends
// stopped emitting an AND that is always 0.)
func TestDivSqrtANDCounts(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	y := b.EvaluatorInputs(16)
	q, r := b.DivMod(x, y)
	b.OutputWord(q)
	b.OutputWord(r)
	if got := b.MustBuild().Stats().ANDs; got != 543 {
		t.Fatalf("b=16 DivMod has %d ANDs, want 543", got)
	}
	b = NewBuilder()
	x = b.GarblerInputs(16)
	b.EvaluatorInputs(0)
	b.OutputWord(b.Sqrt(x))
	if got := b.MustBuild().Stats().ANDs; got != 264 {
		t.Fatalf("b=16 Sqrt has %d ANDs, want 264", got)
	}
}

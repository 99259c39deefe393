package circuit

import (
	"testing"
	"testing/quick"
)

// buildBinOp builds a circuit computing f over a garbler word and an
// evaluator word of the given width and returns an evaluate closure.
func buildBinOp(t *testing.T, width, outWidth int, f func(b *Builder, x, y Word) Word) func(x, y uint64) uint64 {
	t.Helper()
	b := NewBuilder()
	x := b.GarblerInputs(width)
	y := b.EvaluatorInputs(width)
	out := f(b, x, y)
	if len(out) != outWidth {
		t.Fatalf("op produced %d bits, want %d", len(out), outWidth)
	}
	b.OutputWord(out)
	c := b.MustBuild()
	return func(xv, yv uint64) uint64 {
		bits, err := c.Eval(Uint64ToBits(xv, width), Uint64ToBits(yv, width))
		if err != nil {
			t.Fatal(err)
		}
		return BitsToUint64(bits)
	}
}

func TestAddMatchesIntegerAddition(t *testing.T) {
	const w = 16
	eval := buildBinOp(t, w, w, func(b *Builder, x, y Word) Word { return b.Add(x, y) })
	f := func(x, y uint16) bool {
		return eval(uint64(x), uint64(y)) == uint64(x+y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarryOut(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	sum, carry := b.AddCarry(x, y, Const0)
	b.OutputWord(sum)
	b.Outputs(carry)
	c := b.MustBuild()
	f := func(xv, yv uint8) bool {
		bits, err := c.Eval(Uint64ToBits(uint64(xv), 8), Uint64ToBits(uint64(yv), 8))
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(xv) + uint64(yv)
		return BitsToUint64(bits[:8]) == total&0xff && bits[8] == (total > 0xff)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdderANDCountIsOnePerBit(t *testing.T) {
	// The paper relies on TinyGarble's adder: one AND per carry. AddCarry
	// forms all w carries; Add drops the carry out of the top bit, which
	// mod-2^w arithmetic never reads, so it costs w−1.
	for _, w := range []int{4, 8, 16, 32} {
		b := NewBuilder()
		x := b.GarblerInputs(w)
		y := b.EvaluatorInputs(w)
		b.OutputWord(b.Add(x, y))
		if got := b.MustBuild().Stats().ANDs; got != w-1 {
			t.Fatalf("width %d Add has %d ANDs, want %d", w, got, w-1)
		}
		b = NewBuilder()
		x = b.GarblerInputs(w)
		y = b.EvaluatorInputs(w)
		sum, carry := b.AddCarry(x, y, Const0)
		b.OutputWord(sum)
		b.Outputs(carry)
		if got := b.MustBuild().Stats().ANDs; got != w {
			t.Fatalf("width %d AddCarry has %d ANDs, want %d", w, got, w)
		}
	}
}

func TestSubMatchesIntegerSubtraction(t *testing.T) {
	const w = 16
	eval := buildBinOp(t, w, w, func(b *Builder, x, y Word) Word { return b.Sub(x, y) })
	f := func(x, y uint16) bool {
		return eval(uint64(x), uint64(y)) == uint64(x-y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMuxSelects(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	rest := b.EvaluatorInputs(w + 1)
	y, s := rest[:w], rest[w]
	b.OutputWord(b.Mux(s, x, y))
	c := b.MustBuild()
	f := func(xv, yv uint8, sel bool) bool {
		ev := append(Uint64ToBits(uint64(yv), w), sel)
		bits, err := c.Eval(Uint64ToBits(uint64(xv), w), ev)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(yv)
		if sel {
			want = uint64(xv)
		}
		return BitsToUint64(bits) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMuxANDCountIsOnePerBit(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(16)
	rest := b.EvaluatorInputs(17)
	b.OutputWord(b.Mux(rest[16], x, rest[:16]))
	c := b.MustBuild()
	if got := c.Stats().ANDs; got != 16 {
		t.Fatalf("16-bit mux has %d ANDs, want 16", got)
	}
}

func TestExtendWidths(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(4)
	b.EvaluatorInputs(0)
	ze := b.ZeroExtend(x, 8)
	se := b.SignExtend(x, 8)
	b.OutputWord(ze)
	b.OutputWord(se)
	c := b.MustBuild()
	for v := int64(-8); v < 8; v++ {
		bits, err := c.Eval(Int64ToBits(v, 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToUint64(bits[:8]); got != uint64(v)&0xf {
			t.Fatalf("ZeroExtend(%d) = %d", v, got)
		}
		if got := BitsToInt64(bits[8:16]); got != v {
			t.Fatalf("SignExtend(%d) = %d", v, got)
		}
	}
}

// TestComparators checks GEq and subBorrow, which hands DivMod and Sqrt
// the comparison and the difference from one adder.
func TestComparators(t *testing.T) {
	const w = 8
	b := NewBuilder()
	x := b.GarblerInputs(w)
	y := b.EvaluatorInputs(w)
	diff, ge := b.subBorrow(x, y)
	b.Outputs(b.GEq(x, y), ge)
	b.OutputWord(diff)
	c := b.MustBuild()
	for xv := 0; xv < 1<<w; xv++ {
		for yv := 0; yv < 1<<w; yv++ {
			bits, err := c.Eval(Uint64ToBits(uint64(xv), w), Uint64ToBits(uint64(yv), w))
			if err != nil {
				t.Fatal(err)
			}
			if bits[0] != (xv >= yv) || bits[1] != (xv >= yv) || BitsToUint64(bits[2:]) != uint64(uint8(xv-yv)) {
				t.Fatalf("x=%d y=%d: GEq %v, subBorrow (%d, %v)", xv, yv, bits[0], BitsToUint64(bits[2:]), bits[1])
			}
		}
	}
}

func TestMulSerialUnsigned(t *testing.T) {
	const w = 8
	eval := buildBinOp(t, w, 2*w, func(b *Builder, x, y Word) Word { return b.MulSerialUnsigned(x, y) })
	f := func(x, y uint8) bool {
		return eval(uint64(x), uint64(y)) == uint64(x)*uint64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeVsSerialStructure(t *testing.T) {
	// The tree buys adder-level parallelism (⌈log₂ k⌉ levels over k ≈ b/2
	// Booth rows instead of b chained adders — exercised by the scheduler
	// package), not a shorter raw AND chain: ripple carries dominate AND
	// depth in both. It also halves the rows, so at b=16 the unsigned
	// Booth MAC garbles 461 tables against the serial chain's 527.
	cfg := MACConfig{Width: 16, AccWidth: 32}
	tree := MustMAC(cfg).Stats()
	cfg.SerialMultiplier = true
	serial := MustMAC(cfg).Stats()
	if tree.ANDs != 461 || serial.ANDs != 527 {
		t.Fatalf("tree %d ANDs, serial %d ANDs; want 461 and 527", tree.ANDs, serial.ANDs)
	}
	if tree.ANDDepth != 32 || serial.ANDDepth != 32 {
		t.Fatalf("tree depth %d, serial depth %d; want 32 for both", tree.ANDDepth, serial.ANDDepth)
	}
}

// TestMulTreePartialProductsAreParallel: every Booth row select reads
// one evaluator input and one digit wire, which depends on x alone, so
// the whole select layer sits at AND depth ≤ 2 — the parallelism the
// FSM exploits. A signed b-bit MAC has b/2 rows of 2b selects.
func TestMulTreePartialProductsAreParallel(t *testing.T) {
	const w = 8
	c := MustMAC(MACConfig{Width: w, AccWidth: 2 * w, Signed: true})
	ev := FirstInput + c.NGarbler
	xOnly := make([]bool, c.NWires) // constant or computed from x alone
	for i := 0; i < ev; i++ {
		xOnly[i] = true
	}
	depth := make([]int, c.NWires)
	selects := 0
	for _, g := range c.Gates {
		xOnly[g.Out] = xOnly[g.A] && xOnly[g.B]
		depth[g.Out] = max(depth[g.A], depth[g.B])
		if g.Op != AND {
			continue
		}
		depth[g.Out]++
		isEv := func(w int) bool { return w >= ev && w < ev+c.NEvaluator }
		if isEv(g.A) && xOnly[g.B] || isEv(g.B) && xOnly[g.A] {
			selects++
			if depth[g.Out] > 2 {
				t.Fatalf("select gate %+v at AND depth %d", g, depth[g.Out])
			}
		}
	}
	if selects != w*w {
		t.Fatalf("found %d row selects, want %d", selects, w*w)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(b *Builder, x, y Word){
		"Add":     func(b *Builder, x, y Word) { b.Add(x, y[:len(y)-1]) },
		"Sub":     func(b *Builder, x, y Word) { b.Sub(x, y[:len(y)-1]) },
		"Mux":     func(b *Builder, x, y Word) { b.Mux(x[0], x, y[:len(y)-1]) },
		"GEq":     func(b *Builder, x, y Word) { b.GEq(x, y[:len(y)-1]) },
		"ZeroExt": func(b *Builder, x, y Word) { b.ZeroExtend(x, 2) },
		"SignExt": func(b *Builder, x, y Word) { b.SignExtend(x, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with bad widths did not panic", name)
				}
			}()
			b := NewBuilder()
			x := b.GarblerInputs(4)
			y := b.EvaluatorInputs(4)
			f(b, x, y)
		}()
	}
}

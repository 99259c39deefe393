package circuit

import "fmt"

// Arithmetic blocks. Every block uses the GC-optimised constructions
// the paper builds on: ripple adders with one AND gate per bit
// (TinyGarble), multiplexers with one AND per bit, conditional
// 2's-complement negation with one adder, and the tree-based multiplier
// of Fig. 2 built from partial-product AND layers plus an adder tree.

// ConstWord returns a width-bit word wired to the constant v
// (little-endian). Bits of v above width are discarded.
func (b *Builder) ConstWord(v uint64, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Const(v>>uint(i)&1 == 1)
	}
	return w
}

// fullAdder returns (sum, carryOut) for one bit position using the
// 1-AND 4-XOR cell: s = a ⊕ b ⊕ c, c' = c ⊕ ((a⊕c) ∧ (b⊕c)).
func (b *Builder) fullAdder(a, x, c int) (sum, carry int) {
	ac := b.XOR(a, c)
	xc := b.XOR(x, c)
	sum = b.XOR(a, xc)
	carry = b.XOR(c, b.AND(ac, xc))
	return sum, carry
}

// AddCarry returns x + y with an explicit initial carry wire and the
// final carry-out. Operands must have equal width.
func (b *Builder) AddCarry(x, y Word, carryIn int) (Word, int) {
	checkAdderWidths(x, y)
	sum := make(Word, len(x))
	return sum, b.ripple(sum, x, y, carryIn)
}

// ripple writes x + y + carryIn into sum, one full adder per bit, and
// returns the carry out.
func (b *Builder) ripple(sum, x, y Word, carryIn int) int {
	c := carryIn
	for i := range x {
		sum[i], c = b.fullAdder(x[i], y[i], c)
	}
	return c
}

func checkAdderWidths(x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("circuit: adder width mismatch %d vs %d", len(x), len(y)))
	}
}

// Add returns the width-preserving sum x + y mod 2^width. The carry
// out of the top bit is never formed, so a w-bit Add costs w−1 ANDs.
func (b *Builder) Add(x, y Word) Word { return b.addMod(x, y, Const0) }

func (b *Builder) addMod(x, y Word, carryIn int) Word {
	checkAdderWidths(x, y)
	sum := make(Word, len(x))
	if top := len(x) - 1; top >= 0 {
		c := b.ripple(sum[:top], x[:top], y[:top], carryIn)
		sum[top] = b.XOR(b.XOR(x[top], y[top]), c)
	}
	return sum
}

// Sub returns x − y mod 2^width via x + ¬y + 1.
func (b *Builder) Sub(x, y Word) Word { return b.addMod(x, b.not(y), Const1) }

// subBorrow returns x − y mod 2^width and the carry out of x + ¬y + 1,
// which is x ≥ y for unsigned operands: one AND per bit buys both.
func (b *Builder) subBorrow(x, y Word) (diff Word, geq int) {
	return b.AddCarry(x, b.not(y), Const1)
}

func (b *Builder) not(x Word) Word {
	out := make(Word, len(x))
	for i, w := range x {
		out[i] = b.NOT(w)
	}
	return out
}

// CondNeg returns s ? −x : x using the standard one-adder trick:
// every bit is XORed with s (conditional bitwise complement) and then
// s is added at the least significant position.
func (b *Builder) CondNeg(x Word, s int) Word {
	fx := make(Word, len(x))
	for i, w := range x {
		fx[i] = b.XOR(w, s)
	}
	sw := b.ConstWord(0, len(x))
	sw[0] = s
	return b.Add(fx, sw)
}

// Mux returns s ? x1 : x0 bitwise with one AND per bit:
// out = x0 ⊕ s∧(x1 ⊕ x0).
func (b *Builder) Mux(s int, x1, x0 Word) Word {
	if len(x1) != len(x0) {
		panic(fmt.Sprintf("circuit: mux width mismatch %d vs %d", len(x1), len(x0)))
	}
	out := make(Word, len(x0))
	for i := range x0 {
		out[i] = b.XOR(x0[i], b.AND(s, b.XOR(x1[i], x0[i])))
	}
	return out
}

// ZeroExtend widens x to width bits with constant-zero high bits.
func (b *Builder) ZeroExtend(x Word, width int) Word {
	if width < len(x) {
		panic("circuit: ZeroExtend narrows word")
	}
	out := make(Word, width)
	copy(out, x)
	for i := len(x); i < width; i++ {
		out[i] = Const0
	}
	return out
}

// SignExtend widens x to width bits by replicating the top wire.
func (b *Builder) SignExtend(x Word, width int) Word {
	if width < len(x) {
		panic("circuit: SignExtend narrows word")
	}
	if len(x) == 0 {
		panic("circuit: SignExtend of empty word")
	}
	out := make(Word, width)
	copy(out, x)
	for i := len(x); i < width; i++ {
		out[i] = x[len(x)-1]
	}
	return out
}

// GEq returns the wire carrying x ≥ y for unsigned operands, computed
// as the carry-out of x + ¬y + 1 (one AND per bit).
func (b *Builder) GEq(x, y Word) int {
	_, ge := b.subBorrow(x, y)
	return ge
}

// MulTreeUnsigned returns the full-width product x·y
// (len(x)+len(y) bits) using the tree-based structure of Fig. 2:
// one partial-product AND layer per bit of y, pairwise-combined by a
// balanced adder tree so that additions at the same tree level are
// independent and can garble in parallel.
func (b *Builder) MulTreeUnsigned(x, y Word) Word {
	if len(x) == 0 || len(y) == 0 {
		panic("circuit: multiplication of empty word")
	}
	outW := len(x) + len(y)
	// Partial products: pp_i = (x & y_i) << i, zero-extended to outW.
	pps := make([]Word, len(y))
	for i := range y {
		pp := make(Word, outW)
		for j := range pp {
			pp[j] = Const0
		}
		for j := range x {
			pp[i+j] = b.AND(x[j], y[i])
		}
		pps[i] = pp
	}
	// Balanced adder tree.
	for len(pps) > 1 {
		next := pps[:0]
		for i := 0; i+1 < len(pps); i += 2 {
			next = append(next, b.Add(pps[i], pps[i+1]))
		}
		if len(pps)%2 == 1 {
			next = append(next, pps[len(pps)-1])
		}
		pps = next
	}
	return pps[0]
}

// MulSerialUnsigned returns the full-width product using the serial
// shift-and-add structure of the TinyGarble multiplier: a single
// running sum accumulates one conditioned addend per bit of y. Every
// addition depends on the previous one, which is exactly the serial
// dependency chain the paper criticises (§4: "the implementation of the multiplication operation
// in [16] follows a serial nature that does not allow parallelism").
func (b *Builder) MulSerialUnsigned(x, y Word) Word {
	if len(x) == 0 || len(y) == 0 {
		panic("circuit: multiplication of empty word")
	}
	outW := len(x) + len(y)
	acc := b.ConstWord(0, outW)
	for i := range y {
		pp := make(Word, outW)
		for j := range pp {
			pp[j] = Const0
		}
		for j := range x {
			pp[i+j] = b.AND(x[j], y[i])
		}
		acc = b.Add(acc, pp)
	}
	return acc
}

// MulTreeSigned returns the full-width signed (2's complement) product
// following the paper's §4.3 structure: multiplexer–2's-complement
// pairs condition both inputs to magnitudes, the unsigned tree
// multiplier forms the product, and a final conditional negation
// applies the result sign.
func (b *Builder) MulTreeSigned(x, y Word) Word {
	sx := x[len(x)-1]
	sy := y[len(y)-1]
	mx := b.CondNeg(x, sx)
	my := b.CondNeg(y, sy)
	p := b.MulTreeUnsigned(mx, my)
	return b.CondNeg(p, b.XOR(sx, sy))
}

package circuit

import "fmt"

// Arithmetic blocks. Every block uses the GC-optimised constructions
// the paper builds on: ripple adders with one AND gate per bit
// (TinyGarble), multiplexers with one AND per bit, and the tree-based
// multiplier of Fig. 2, its partial-product rows selected by the
// garbler's radix-4 Booth digits and summed by a balanced adder tree.

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
// 1-AND 4-XOR cell: s = a ⊕ b ⊕ c, c' = c ⊕ ((a⊕c) ∧ (b⊕c)). Two
// constant addends need no AND: the carry is a when they are equal, and
// c when they differ.
func (b *Builder) fullAdder(a, x, c int) (sum, carry int) {
	if a < FirstInput && x < FirstInput {
		if a == x {
			return c, a
		}
		return b.NOT(c), c
	}
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

// mulAccBooth returns acc + x·y mod 2^len(acc) through the tree
// multiplier of Fig. 2, built on x's radix-4 Booth digits
// d_i = −2·x_{2i+1} + x_{2i} + x_{2i−1} ∈ {0, ±1, ±2}: ⌈n/2⌉ rows d_i·y
// instead of b rows x_i·y, and no conditional negation. x is read as an
// n-bit signed value, n = b when signed and b+1 (a zero sign bit) when
// not, so one generator serves both signednesses. A digit costs one
// AND that reads only x, and a row 2·len(y) selects.
func (b *Builder) mulAccBooth(acc, x, y Word, signed bool) Word {
	if len(x) == 0 || len(y) == 0 {
		panic("circuit: multiplication of empty word")
	}
	// m is the row width: ±2y needs one bit more than y signed, two
	// unsigned.
	n, m := len(x), len(y)+1
	widen := b.SignExtend
	if !signed {
		n, m, widen = n+1, m+1, b.ZeroExtend
	}
	// The product less row 0's +1 fits n+len(y) bits signed: unsigned,
	// it can be −1, which is why n counts x's zero sign bit.
	w := min(n+len(y), len(acc))
	xs, ys := widen(x, n+1), widen(y, m)
	twoY := append(Word{Const0}, ys[:m-1]...)
	k := (n + 1) / 2
	rows, negs := make([]Word, k), make([]int, k)
	for i := range rows {
		below := Const0
		if i > 0 {
			below = xs[2*i-1]
		}
		one := b.XOR(xs[2*i], below)
		two := b.AND(b.XOR(xs[2*i+1], xs[2*i]), b.NOT(one))
		negs[i] = xs[2*i+1]
		// The row is d_i·y − neg_i: the selected multiple, complemented
		// when the digit is negative. The sign-extended y bit repeats,
		// and so does its select.
		pp := make(Word, m)
		oneY := Const0
		for j := range pp {
			if j == 0 || ys[j] != ys[j-1] {
				oneY = b.AND(one, ys[j])
			}
			pp[j] = b.XOR(b.XOR(oneY, b.AND(two, twoY[j])), negs[i])
		}
		// Sign extension by the standard pattern: an m-bit row with sign
		// s is its low bits plus ¬s·2^{m−1} − 2^{m−1}. Row 0 carries
		// s, s, ¬s above its low bits and row i ≥ 1 carries ¬s, 1; with
		// them the rows' −2^{m−1+2i} terms sum to 2^{m−1+2k}, which is
		// 0 mod 2^w.
		s, ns := pp[m-1], b.NOT(pp[m-1])
		tail := Word{ns, Const1}
		if i == 0 {
			tail = Word{s, s, ns}
		}
		rows[i] = b.ConstWord(0, w)
		for j, wire := range append(pp[:m-1], tail...) {
			if p := 2*i + j; p < w {
				rows[i][p] = wire
			}
		}
	}
	// A balanced adder tree. The adder joining rows [lo, mid) and
	// [mid, hi) has a right operand that is Const0 below 2·mid, so the
	// carry into 2·mid is free: it takes neg_mid, the +1 that completes
	// row mid's negation. neg_0 is the accumulator add's carry-in.
	var sum func(lo, hi int) Word
	sum = func(lo, hi int) Word {
		if hi-lo == 1 {
			return rows[lo]
		}
		mid := (lo + hi) / 2
		l, r, p := sum(lo, mid), sum(mid, hi), 2*mid
		return append(l[:p:p], b.addMod(l[p:], r[p:], negs[mid])...)
	}
	return b.addMod(acc, b.SignExtend(sum(0, k), len(acc)), negs[0])
}

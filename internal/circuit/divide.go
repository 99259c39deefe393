package circuit

import "fmt"

// Division and square-root netlists. The ridge-regression pipeline the
// paper accelerates (Nikolaenko et al. [7]) contains O(d²) divisions
// and O(d) square roots alongside its O(d³) MACs; these blocks give
// the repository a complete garbled arithmetic library and let the
// case-study cost models price the non-MAC operations from real gate
// counts instead of guesses.

// DivMod returns the quotient and remainder of unsigned x / y using
// restoring long division: per quotient bit, one subtraction whose
// borrow is the comparison (one AND per bit) and one mux that keeps
// the difference or the shifted remainder. Division by zero yields
// quotient all-ones and remainder x, matching hardware restoring
// dividers.
func (b *Builder) DivMod(x, y Word) (quot, rem Word) {
	if len(x) == 0 || len(y) == 0 {
		panic("circuit: division of empty word")
	}
	w := len(y)
	// Remainder register one bit wider than y so the shifted-in bit
	// never overflows the comparison.
	r := b.ConstWord(0, w+1)
	yw := b.ZeroExtend(y, w+1)
	quot = make(Word, len(x))
	for i := len(x) - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		shifted := make(Word, w+1)
		shifted[0] = x[i]
		copy(shifted[1:], r[:w])
		diff, ge := b.subBorrow(shifted, yw)
		r = b.Mux(ge, diff, shifted)
		quot[i] = ge
	}
	return quot, r[:w]
}

// Sqrt returns the integer square root ⌊√x⌋ of an unsigned word with
// even width, via the restoring digit-by-digit algorithm: one
// subtraction (whose borrow is the comparison) and one mux per result
// bit, no multiplier.
func (b *Builder) Sqrt(x Word) Word {
	if len(x) == 0 || len(x)%2 != 0 {
		panic(fmt.Sprintf("circuit: Sqrt needs a non-empty even-width word, got %d bits", len(x)))
	}
	w := len(x)
	half := w / 2
	// rem accumulates the running remainder; root the result bits.
	// Working width w+2 covers the shifted trial subtrahend.
	rw := w + 2
	rem := b.ConstWord(0, rw)
	root := b.ConstWord(0, rw)
	for i := half - 1; i >= 0; i-- {
		// rem = (rem << 2) | next two input bits (MSB first).
		shifted := make(Word, rw)
		shifted[0] = x[2*i]
		shifted[1] = x[2*i+1]
		copy(shifted[2:], rem[:rw-2])
		// trial = (root << 2) | 01
		trial := make(Word, rw)
		trial[0] = Const1
		trial[1] = Const0
		copy(trial[2:], root[:rw-2])
		diff, ge := b.subBorrow(shifted, trial)
		rem = b.Mux(ge, diff, shifted)
		// root = (root << 1) | ge
		newRoot := make(Word, rw)
		newRoot[0] = ge
		copy(newRoot[1:], root[:rw-1])
		root = newRoot
	}
	return root[:half]
}

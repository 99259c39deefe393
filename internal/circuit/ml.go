package circuit

// Deep-learning building blocks (§2.1: DL layers interleave the
// matrix multiplications MAXelerator accelerates with "several
// non-linear operations"). These are the GC-optimised forms of ReLU
// and argmax, built from the one-AND-per-bit comparator and
// multiplexer cells.

// ReLU returns max(x, 0) for a signed word: one mux layer gated by the
// sign bit, one AND per bit below it (the sign bit's own select is
// AND(s, s), which folds).
func (b *Builder) ReLU(x Word) Word {
	if len(x) == 0 {
		panic("circuit: ReLU of empty word")
	}
	zero := b.ConstWord(0, len(x))
	return b.Mux(x[len(x)-1], zero, x)
}

// geqSigned returns x ≥ y for two's complement words: biasing both by
// flipping the sign bit reduces it to the unsigned comparator.
func (b *Builder) geqSigned(x, y Word) int {
	bx := make(Word, len(x))
	by := make(Word, len(y))
	copy(bx, x)
	copy(by, y)
	bx[len(bx)-1] = b.NOT(x[len(x)-1])
	by[len(by)-1] = b.NOT(y[len(y)-1])
	return b.GEq(bx, by)
}

// ArgMax returns the index (as an index-width word) of the signed
// maximum among the candidates — the final layer of a classifier,
// where only the label index should be revealed. Ties resolve to the
// lower index.
func (b *Builder) ArgMax(candidates []Word) Word {
	if len(candidates) == 0 {
		panic("circuit: ArgMax of empty candidate set")
	}
	idxWidth := 1
	for 1<<uint(idxWidth) < len(candidates) {
		idxWidth++
	}
	type entry struct {
		value Word
		index Word
	}
	level := make([]entry, len(candidates))
	for i, c := range candidates {
		level[i] = entry{value: c, index: b.ConstWord(uint64(i), idxWidth)}
	}
	for len(level) > 1 {
		next := make([]entry, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			// Strictly-greater keeps the lower index on ties:
			// pick right only when right > left.
			rightWins := b.NOT(b.geqSigned(level[i].value, level[i+1].value))
			next = append(next, entry{
				value: b.Mux(rightWins, level[i+1].value, level[i].value),
				index: b.Mux(rightWins, level[i+1].index, level[i].index),
			})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].index
}

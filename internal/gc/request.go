package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// Request garbles the rows of one matrix request, each a Cols-round
// sequential chain of one circuit, under one Δ and one AES key set from
// a 16-byte seed. Row i's labels are AES_k(i ‖ n) for n = 0, 1, … in
// draw order, and Δ is AES_k(2⁶⁴−1 ‖ 0), a counter no row reaches. Row
// i hashes under the tweaks from i·Cols·ANDs·TweaksPerGate on, a range
// no other row touches. A row's bytes therefore depend on its index
// alone, not on which lane garbles it or when, and no tweak repeats
// under Δ however the rows are spread over lanes. A Request is
// read-only and safe for concurrent use; each goroutine garbles on its
// own Lane.
type Request struct {
	params    Params
	ckt       *circuit.Circuit
	cols      int
	block     cipher.Block
	delta     label.Delta
	rowTweaks uint64 // the tweak range one row spans
}

// NewRequest keys a request of cols-round rows of c from seed.
func NewRequest(params Params, c *circuit.Circuit, cols int, seed [16]byte) (*Request, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	prog, err := c.Program()
	if err != nil {
		return nil, err
	}
	if cols < 1 {
		return nil, fmt.Errorf("gc: request of %d-round rows", cols)
	}
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		return nil, err
	}
	src := counterLabels{block: block}
	binary.BigEndian.PutUint64(src.ctr[:8], math.MaxUint64)
	d, err := label.NewDelta(&src)
	if err != nil {
		return nil, err
	}
	return &Request{params: params, ckt: c, cols: cols, block: block, delta: d,
		rowTweaks: uint64(cols) * uint64(prog.NAND) * params.Scheme.TweaksPerGate()}, nil
}

// Lane garbles rows of its request on one goroutine, reusing the
// walker's working memory from row to row. It garbles rows in
// increasing order only, so its tweak cursor never moves down.
type Lane struct {
	req  *Request
	g    Garbler
	src  counterLabels
	bits []bool
	next int // the lowest row the lane may still garble
}

// Lane returns a new lane of r.
func (r *Request) Lane() *Lane {
	l := &Lane{req: r, src: counterLabels{block: r.block}, bits: make([]bool, r.ckt.NGarbler)}
	l.g = Garbler{params: r.params, delta: r.delta, rand: &l.src, aes: r.params.halfGatesAES(), deltaLabel: r.delta.Label()}
	return l
}

// GarbleRow garbles row i for the garbler's values x, chaining the state
// labels from round to round, and hands each round to emit as soon as
// it is garbled; an emit error stops the row and is returned as is.
// Each value enters as its low bits, so the caller range-checks x. A
// row at or below one this lane has garbled, even in part, is refused.
func (l *Lane) GarbleRow(i int, x []int64, emit func(round int, gb *Garbled) error) error {
	if i < l.next {
		return fmt.Errorf("gc: row %d refused: this lane has garbled row %d", i, l.next-1)
	}
	if len(x) != l.req.cols {
		return fmt.Errorf("gc: row %d has %d values, the request %d rounds", i, len(x), l.req.cols)
	}
	l.next = i + 1
	binary.BigEndian.PutUint64(l.src.ctr[:8], uint64(i))
	l.src.n = 0
	l.g.next = uint64(i) * l.req.rowTweaks
	var state0 []label.Label
	for round, xi := range x {
		for b := range l.bits { // Garble only reads it, so every round shares it
			l.bits[b] = uint64(xi)>>b&1 == 1 // circuit.Int64ToBits, in place
		}
		gb, err := l.g.Garble(l.req.ckt, GarbleOptions{GarblerInputs: l.bits, State0: state0})
		if err != nil {
			return fmt.Errorf("gc: row %d round %d: %w", i, round, err)
		}
		state0 = gb.StateOut0
		if err := emit(round, gb); err != nil {
			return err
		}
	}
	return nil
}

// counterLabels is one row's label stream: the n-th label read is
// AES_k(row ‖ n), both halves big-endian. Reads are whole labels.
type counterLabels struct {
	block cipher.Block
	ctr   [label.Size]byte // row ‖ n
	n     uint64
}

func (c *counterLabels) Read(p []byte) (int, error) {
	for off := 0; off < len(p); off += label.Size {
		binary.BigEndian.PutUint64(c.ctr[8:], c.n)
		c.block.Encrypt(p[off:off+label.Size], c.ctr[:])
		c.n++
	}
	return len(p), nil
}

// Package label implements the 128-bit wire labels that carry encrypted
// truth values through a garbled circuit, together with the free-XOR
// global offset Δ (Kolesnikov–Schneider) and the point-and-permute
// select bits (Beaver–Micali–Rogaway).
//
// Every wire w in a garbled circuit is assigned two labels: X⁰ encoding
// FALSE and X¹ encoding TRUE. Under the free-XOR convention the pair is
// correlated as X¹ = X⁰ ⊕ Δ where Δ is a garbler-global secret with its
// least significant bit forced to 1, so that the select (permute) bits
// of the two labels always differ and the evaluator can use lsb(X) as a
// row index without learning the truth value.
package label

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// Size is the byte length of a wire label. The paper uses the standard
// security parameter k = 128 bits.
const Size = 16

// Bits is the bit length of a wire label.
const Bits = Size * 8

// Label is a k-bit wire label. The zero value is the all-zero label,
// which free-XOR garbling uses as the fixed FALSE constant.
type Label [Size]byte

// Zero is the all-zero label.
var Zero Label

// Xor returns l ⊕ m.
func (l Label) Xor(m Label) Label {
	var out Label
	for i := range l {
		out[i] = l[i] ^ m[i]
	}
	return out
}

// XorInto stores l ⊕ m into dst. It is the allocation-free form of Xor
// used on the garbling hot path.
func (l *Label) XorInto(m, dst *Label) {
	a := binary.LittleEndian.Uint64(l[0:8])
	b := binary.LittleEndian.Uint64(l[8:16])
	c := binary.LittleEndian.Uint64(m[0:8])
	d := binary.LittleEndian.Uint64(m[8:16])
	binary.LittleEndian.PutUint64(dst[0:8], a^c)
	binary.LittleEndian.PutUint64(dst[8:16], b^d)
}

// LSB reports the point-and-permute select bit of the label.
func (l Label) LSB() bool { return l[0]&1 == 1 }

// SelectBit returns the select bit as 0 or 1.
func (l Label) SelectBit() byte { return l[0] & 1 }

// IsZero reports whether the label is all zeros.
func (l Label) IsZero() bool { return l == Zero }

// Double returns the doubling 2·l of the label in GF(2^128) with the
// standard reduction polynomial x^128 + x^7 + x^2 + x + 1. Doubling is
// used by the fixed-key garbling hash of Bellare et al. to separate the
// two hash inputs of a half gate.
func (l Label) Double() Label {
	var out Label
	l.DoubleInto(&out)
	return out
}

// DoubleInto stores 2·l into dst (dst may be l). It is the copy-free
// form of Double used on the garbling hot path.
func (l *Label) DoubleInto(dst *Label) {
	hi := binary.BigEndian.Uint64(l[0:8])
	lo := binary.BigEndian.Uint64(l[8:16])
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo = lo<<1 ^ carry*0x87
	binary.BigEndian.PutUint64(dst[0:8], hi)
	binary.BigEndian.PutUint64(dst[8:16], lo)
}

// Quadruple returns 4·l in GF(2^128).
func (l Label) Quadruple() Label { return l.Double().Double() }

// String renders the label as lowercase hex.
func (l Label) String() string { return hex.EncodeToString(l[:]) }

// Random draws a uniformly random label from r.
func Random(r io.Reader) (Label, error) {
	var l Label
	if err := ReadRandom(r, &l); err != nil {
		return Zero, err
	}
	return l, nil
}

// ReadRandom draws a uniformly random label from r into dst with one
// 16-byte read. Unlike Random it allocates nothing when dst already
// lives on the heap (a label handed to an io.Reader escapes), which is
// what the garbler's per-wire label draws need.
func ReadRandom(r io.Reader, dst *Label) error {
	if _, err := io.ReadFull(r, dst[:]); err != nil {
		return fmt.Errorf("label: drawing random label: %w", err)
	}
	return nil
}

// MustRandom draws a uniformly random label from crypto/rand and panics
// on failure. It is intended for tests and examples.
func MustRandom() Label {
	l, err := Random(rand.Reader)
	if err != nil {
		panic(err)
	}
	return l
}

// Delta is the free-XOR global offset R∥1: a random k-bit value whose
// least significant bit is forced to 1 so that paired labels have
// complementary select bits.
type Delta struct {
	l Label
}

// NewDelta draws a fresh global offset from r.
func NewDelta(r io.Reader) (Delta, error) {
	l, err := Random(r)
	if err != nil {
		return Delta{}, err
	}
	l[0] |= 1
	return Delta{l: l}, nil
}

// MustNewDelta draws a fresh global offset from crypto/rand and panics
// on failure. It is intended for tests and examples.
func MustNewDelta() Delta {
	d, err := NewDelta(rand.Reader)
	if err != nil {
		panic(err)
	}
	return d
}

// DeltaFromLabel builds a Delta from an existing label, forcing the
// select bit to 1.
func DeltaFromLabel(l Label) Delta {
	l[0] |= 1
	return Delta{l: l}
}

// Label returns the raw offset value.
func (d Delta) Label() Label { return d.l }

// Flip returns l ⊕ Δ, i.e. the complementary label of the pair.
func (d Delta) Flip(l Label) Label { return l.Xor(d.l) }

// Pair bundles the two labels of one wire.
type Pair struct {
	// False is X⁰, the label encoding logical 0.
	False Label
	// True is X¹ = X⁰ ⊕ Δ, the label encoding logical 1.
	True Label
}

// NewPair derives the free-XOR-correlated pair from the FALSE label.
func NewPair(false0 Label, d Delta) Pair {
	return Pair{False: false0, True: d.Flip(false0)}
}

// RandomPair draws a fresh FALSE label from r and derives the pair.
func RandomPair(r io.Reader, d Delta) (Pair, error) {
	l, err := Random(r)
	if err != nil {
		return Pair{}, err
	}
	return NewPair(l, d), nil
}

// Get returns the label encoding the truth value v.
func (p Pair) Get(v bool) Label {
	if v {
		return p.True
	}
	return p.False
}

// Consistent reports whether the pair honours the free-XOR correlation
// under d.
func (p Pair) Consistent(d Delta) bool {
	return p.False.Xor(p.True) == d.Label()
}

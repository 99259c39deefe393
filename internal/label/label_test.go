package label

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestXorSelfIsZero(t *testing.T) {
	l := MustRandom()
	if got := l.Xor(l); !got.IsZero() {
		t.Fatalf("l ⊕ l = %v, want zero", got)
	}
}

func TestXorCommutesAndAssociates(t *testing.T) {
	f := func(a, b, c Label) bool {
		if a.Xor(b) != b.Xor(a) {
			return false
		}
		return a.Xor(b).Xor(c) == a.Xor(b.Xor(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorZeroIsIdentity(t *testing.T) {
	f := func(a Label) bool { return a.Xor(Zero) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorIntoMatchesXor(t *testing.T) {
	f := func(a, b Label) bool {
		var dst Label
		a.XorInto(&b, &dst)
		return dst == a.Xor(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorIntoAliasedOperands(t *testing.T) {
	a, b := MustRandom(), MustRandom()
	want := a.Xor(b)
	a.XorInto(&b, &a) // dst aliases receiver
	if a != want {
		t.Fatalf("aliased XorInto = %v, want %v", a, want)
	}
}

func TestLSBMatchesLowBit(t *testing.T) {
	f := func(a Label) bool {
		want := a[0]&1 == 1
		return a.LSB() == want && (a.SelectBit() == 1) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleIsLinear(t *testing.T) {
	// Doubling in GF(2^128) is linear: 2(a ⊕ b) = 2a ⊕ 2b.
	f := func(a, b Label) bool {
		return a.Xor(b).Double() == a.Double().Xor(b.Double())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleIntoMatchesDouble(t *testing.T) {
	f := func(a Label) bool {
		var dst Label
		a.DoubleInto(&dst)
		want := a.Double()
		a.DoubleInto(&a) // dst aliases receiver
		return dst == want && a == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleKnownVector(t *testing.T) {
	// 2·x where x has only the top bit set must fold in the reduction
	// polynomial 0x87.
	var x Label
	x[0] = 0x80 // big-endian top bit
	got := x.Double()
	var want Label
	want[15] = 0x87
	if got != want {
		t.Fatalf("Double(msb) = %v, want %v", got, want)
	}
}

func TestDoubleShiftsWithoutCarry(t *testing.T) {
	var x Label
	binary.BigEndian.PutUint64(x[8:16], 1)
	got := x.Double()
	var want Label
	binary.BigEndian.PutUint64(want[8:16], 2)
	if got != want {
		t.Fatalf("Double(1) = %v, want %v", got, want)
	}
}

func TestQuadrupleIsDoubleDouble(t *testing.T) {
	f := func(a Label) bool { return a.Quadruple() == a.Double().Double() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleSeparatesFromIdentity(t *testing.T) {
	// For nonzero labels, 2a ≠ a (2-1 = 1 is not a root of the field).
	f := func(a Label) bool {
		if a.IsZero() {
			return a.Double().IsZero()
		}
		return a.Double() != a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaLSBAlwaysSet(t *testing.T) {
	for i := 0; i < 64; i++ {
		d := MustNewDelta()
		if !d.Label().LSB() {
			t.Fatalf("delta %v has clear select bit", d.Label())
		}
	}
}

func TestDeltaFromLabelForcesLSB(t *testing.T) {
	f := func(a Label) bool { return DeltaFromLabel(a).Label().LSB() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairCorrelation(t *testing.T) {
	d := MustNewDelta()
	p := NewPair(MustRandom(), d)
	if !p.Consistent(d) {
		t.Fatal("pair does not honour free-XOR correlation")
	}
	if p.False.LSB() == p.True.LSB() {
		t.Fatal("paired labels share a select bit; point-and-permute broken")
	}
}

func TestPairGet(t *testing.T) {
	d := MustNewDelta()
	p := NewPair(MustRandom(), d)
	if p.Get(false) != p.False || p.Get(true) != p.True {
		t.Fatal("Get returned wrong label")
	}
}

func TestFlipIsInvolution(t *testing.T) {
	d := MustNewDelta()
	f := func(a Label) bool { return d.Flip(d.Flip(a)) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorHomomorphism(t *testing.T) {
	// Free XOR soundness at the label-algebra level: for wires with
	// labels A⁰, B⁰ and any truth values u, v the label A^u ⊕ B^v equals
	// (A⁰ ⊕ B⁰) ⊕ (u⊕v)·Δ — i.e. XOR of labels is XOR of values.
	d := MustNewDelta()
	a := NewPair(MustRandom(), d)
	b := NewPair(MustRandom(), d)
	c := NewPair(a.False.Xor(b.False), d)
	for _, u := range []bool{false, true} {
		for _, v := range []bool{false, true} {
			got := a.Get(u).Xor(b.Get(v))
			want := c.Get(u != v)
			if got != want {
				t.Fatalf("u=%v v=%v: label %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestRandomDistinct(t *testing.T) {
	seen := make(map[Label]bool)
	for i := 0; i < 128; i++ {
		l, err := Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l] {
			t.Fatalf("duplicate random label %v", l)
		}
		seen[l] = true
	}
}

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, errors.New("entropy exhausted") }

func TestRandomPropagatesReaderError(t *testing.T) {
	if _, err := Random(failReader{}); err == nil {
		t.Fatal("Random with failing reader returned nil error")
	}
	if _, err := NewDelta(failReader{}); err == nil {
		t.Fatal("NewDelta with failing reader returned nil error")
	}
}

type shortReader struct{ n int }

func (r *shortReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(p) {
		n = len(p)
	}
	r.n -= n
	return n, nil
}

func TestRandomShortRead(t *testing.T) {
	if _, err := Random(&shortReader{n: 3}); err == nil {
		t.Fatal("Random with short reader returned nil error")
	}
}

func TestStringIsHex(t *testing.T) {
	var l Label
	l[0] = 0xab
	l[15] = 0x01
	got := l.String()
	if len(got) != 32 || got[:2] != "ab" || got[30:] != "01" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRandomPairUsesDelta(t *testing.T) {
	d := MustNewDelta()
	p, err := RandomPair(rand.Reader, d)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Consistent(d) {
		t.Fatal("RandomPair not consistent with delta")
	}
}

func TestLabelValueSemantics(t *testing.T) {
	a := MustRandom()
	b := a
	b[0] ^= 0xff
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("label mutation aliased underlying storage")
	}
}

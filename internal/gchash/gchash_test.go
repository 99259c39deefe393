package gchash

import (
	"crypto/aes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"maxelerator/internal/label"
)

func hashers() []Hasher { return []Hasher{MustAES(), NewSHA256()} }

func TestDeterministic(t *testing.T) {
	for _, h := range hashers() {
		x := label.MustRandom()
		if h.Hash(x, 42) != h.Hash(x, 42) {
			t.Fatalf("%s: hash not deterministic", h.Name())
		}
	}
}

func TestTweakSeparation(t *testing.T) {
	for _, h := range hashers() {
		f := func(x label.Label, t1, t2 uint64) bool {
			if t1 == t2 {
				return true
			}
			return h.Hash(x, t1) != h.Hash(x, t2)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
	}
}

func TestInputSeparation(t *testing.T) {
	for _, h := range hashers() {
		f := func(x, y label.Label, tw uint64) bool {
			if x == y {
				return true
			}
			return h.Hash(x, tw) != h.Hash(y, tw)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
	}
}

func TestHashIntoMatchesHash(t *testing.T) {
	for _, h := range hashers() {
		f := func(x label.Label, tw uint64) bool {
			var dst label.Label
			h.HashInto(&x, tw, &dst)
			return dst == h.Hash(x, tw)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
	}
}

func TestHashIntoDoesNotClobberInput(t *testing.T) {
	for _, h := range hashers() {
		x := label.MustRandom()
		orig := x
		var dst label.Label
		h.HashInto(&x, 7, &dst)
		if x != orig {
			t.Fatalf("%s: HashInto mutated its input", h.Name())
		}
	}
}

func TestAESNotIdentityOrLinear(t *testing.T) {
	// H must not be linear: H(a ⊕ b) ≠ H(a) ⊕ H(b) in general, otherwise
	// garbled rows leak. Probabilistic, but a linear H would fail almost
	// surely.
	h := MustAES()
	a, b := label.MustRandom(), label.MustRandom()
	if h.Hash(a.Xor(b), 3) == h.Hash(a, 3).Xor(h.Hash(b, 3)) {
		t.Fatal("AES hash behaves linearly on sampled inputs")
	}
	if h.Hash(a, 3) == a {
		t.Fatal("AES hash is identity on sampled input")
	}
}

func TestOutputBitsBalanced(t *testing.T) {
	// Sanity entropy check: over many hashes, each output byte position
	// should not be constant.
	h := MustAES()
	var seen [label.Size]map[byte]bool
	for i := range seen {
		seen[i] = make(map[byte]bool)
	}
	for i := 0; i < 256; i++ {
		out := h.Hash(label.MustRandom(), uint64(i))
		for j, b := range out {
			seen[j][b] = true
		}
	}
	for j := range seen {
		if len(seen[j]) < 32 {
			t.Fatalf("output byte %d took only %d values over 256 hashes", j, len(seen[j]))
		}
	}
}

func TestNames(t *testing.T) {
	if MustAES().Name() != "fixed-key-aes" {
		t.Fatal("unexpected AES hasher name")
	}
	if NewSHA256().Name() != "sha256" {
		t.Fatal("unexpected SHA-256 hasher name")
	}
}

func TestAESSHADisagree(t *testing.T) {
	a, s := MustAES(), NewSHA256()
	x := label.MustRandom()
	if a.Hash(x, 1) == s.Hash(x, 1) {
		t.Fatal("independent constructions agreed; suspicious")
	}
}

func BenchmarkAESHash(b *testing.B) {
	h := MustAES()
	x := label.MustRandom()
	var dst label.Label
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.HashInto(&x, uint64(i), &dst)
	}
}

// BenchmarkHashAND prices one AND gate's hashes: the garbler's four
// labels and the evaluator's two.
func BenchmarkHashAND(b *testing.B) {
	h := MustAES()
	s := new(ANDBlocks)
	for i := range s.X {
		s.X[i] = label.MustRandom()
	}
	for _, n := range []int{4, 2} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.HashAND(s, n, uint64(i))
			}
		})
	}
}

func BenchmarkSHA256Hash(b *testing.B) {
	h := NewSHA256()
	x := label.MustRandom()
	var dst label.Label
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.HashInto(&x, uint64(i), &dst)
	}
}

// TestHashANDMatchesHash: the AND kernel's batched form is the same
// function as Hash under the half-gate tweak schedule — wire a's labels
// under T, wire b's under T+1 — for the garbler's four labels and the
// evaluator's two, leaves its inputs alone, and allocates nothing on
// scratch that is already on the heap.
func TestHashANDMatchesHash(t *testing.T) {
	h := MustAES()
	s := new(ANDBlocks)
	f := func(x [4]label.Label, tw uint64) bool {
		for _, n := range []int{2, 4} {
			s.X = x
			h.HashAND(s, n, tw)
			if s.X != x {
				return false
			}
			for i := 0; i < n; i++ {
				want := tw
				if i >= n/2 {
					want++
				}
				if s.H[i] != h.Hash(x[i], want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { h.HashAND(s, 4, 9) }); n != 0 {
		t.Fatalf("HashAND allocates %.0f objects per call", n)
	}
}

// TestHashANDMatchesGeneric: HashAND and HashInto are the portable loops
// bit for bit, for both arities, on random labels and tweaks and on the
// edges the kernel computes differently — a label with bit 127 set
// (the GF(2^128) reduction), all-zero and all-ones labels, and tweaks 0
// and 2^64−1 (tweak+1 wraps). Under purego, or on a CPU without AES-NI,
// both sides are the portable path.
func TestHashANDMatchesGeneric(t *testing.T) {
	h := MustAES()
	got, want := new(ANDBlocks), new(ANDBlocks)
	check := func(x [4]label.Label, tw uint64) bool {
		for _, n := range []int{2, 4} {
			got.X, want.X = x, x
			h.HashAND(got, n, tw)
			h.hashANDGo(want, n, tw)
			if got.X != x || !slices.Equal(got.H[:n], want.H[:n]) {
				return false
			}
		}
		for i := range x {
			var a, b label.Label
			h.HashInto(&x[i], tw, &a)
			h.hashIntoGo(&x[i], tw, &b)
			if a != b || h.Hash(x[i], tw) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}

	var top, ones label.Label
	top[0] = 0x80
	for i := range ones {
		ones[i] = 0xff
	}
	edges := [][4]label.Label{
		{top, top, top, top},
		{label.Zero, ones, top, label.Zero},
		{ones, ones, ones, ones},
	}
	for i := 0; i < 8; i++ {
		x := [4]label.Label{label.MustRandom(), label.MustRandom(), label.MustRandom(), label.MustRandom()}
		for j := range x {
			x[j][0] |= 0x80
		}
		edges = append(edges, x)
	}
	for _, x := range edges {
		for _, tw := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64} {
			if !check(x, tw) {
				t.Fatalf("kernel and portable loop disagree on %x, tweak %#x", x, tw)
			}
		}
	}
}

// TestRoundKeysMatchCryptoAES: the literal schedule is fixedKey's. Round
// key 0 is the key, and π(K) recovered from the hash (H ⊕ K, with
// K = 2x ⊕ T) equals crypto/aes's encryption of K under fixedKey, for
// random inputs.
func TestRoundKeysMatchCryptoAES(t *testing.T) {
	if roundKeys[0] != fixedKey {
		t.Fatalf("round key 0 is %x, want the key %x", roundKeys[0], fixedKey)
	}
	block, err := aes.NewCipher(fixedKey[:])
	if err != nil {
		t.Fatal(err)
	}
	h := MustAES()
	f := func(x label.Label, tw uint64) bool {
		var k, hx, got, want label.Label
		x.DoubleInto(&k)
		k[0] ^= byte(tw) // the tweak is little endian in bytes 0..7
		for i := 1; i < 8; i++ {
			k[i] ^= byte(tw >> (8 * i))
		}
		h.HashInto(&x, tw, &hx)
		hx.XorInto(&k, &got)
		block.Encrypt(want[:], k[:])
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashANDRejectsOtherArity: HashAND takes the garbler's 4 labels or
// the evaluator's 2, and names anything else in its panic.
func TestHashANDRejectsOtherArity(t *testing.T) {
	h := MustAES()
	for _, n := range []int{-1, 0, 1, 3, 5} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "gchash: HashAND of") {
					t.Errorf("HashAND(n=%d) panicked with %q, want the arity message", n, msg)
				}
			}()
			h.HashAND(new(ANDBlocks), n, 0)
		}()
	}
}

// TestHashIntoAllocatesNothing: on the kernel path a one-label hash
// keeps its scratch on the stack.
func TestHashIntoAllocatesNothing(t *testing.T) {
	if !useKernel {
		t.Skip("portable path: crypto/aes through cipher.Block allocates")
	}
	h := MustAES()
	x, dst := label.MustRandom(), new(label.Label)
	if n := testing.AllocsPerRun(100, func() { h.HashInto(&x, 9, dst) }); n != 0 {
		t.Fatalf("HashInto allocates %.0f objects per call", n)
	}
}

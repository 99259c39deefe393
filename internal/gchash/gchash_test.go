package gchash

import (
	"crypto/aes"
	"encoding/binary"
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

// TestExpandKeyMatchesCryptoAES: expandKey is the AES-128 schedule.
// It gives FIPS-197 Appendix A.1's last round key and the literal
// schedule of fixedKey the kernel carried before expandKey; for random
// keys and blocks, AES from its round keys (a byte-wise cipher here,
// and the counter kernel) is crypto/aes's; and π(K) recovered from the
// garbling hash (H ⊕ K, with K = 2x ⊕ T) is crypto/aes's encryption of
// K under fixedKey.
func TestExpandKeyMatchesCryptoAES(t *testing.T) {
	fips := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	if rk, want := expandKey(fips), [16]byte{0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63, 0x0c, 0xa6}; rk[10] != want {
		t.Fatalf("FIPS-197 A.1: round key 10 = %x, want %x", rk[10], want)
	}
	if roundKeys != fixedKeySchedule {
		t.Fatalf("fixedKey's schedule is %x, want %x", roundKeys, fixedKeySchedule)
	}

	f := func(key, in [16]byte, hi, lo uint64) bool {
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		rk := expandKey(key)
		var want [16]byte
		block.Encrypt(want[:], in[:])
		if encryptBytewise(&rk, in) != want {
			return false
		}
		var ctr, got [16]byte
		binary.BigEndian.PutUint64(ctr[:8], hi)
		binary.BigEndian.PutUint64(ctr[8:], lo)
		block.Encrypt(want[:], ctr[:])
		s := NewSchedule(key)
		if s.rk != rk {
			return false
		}
		encryptCounters(&s, hi, lo, got[:])
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	block, err := aes.NewCipher(fixedKey[:])
	if err != nil {
		t.Fatal(err)
	}
	h := MustAES()
	g := func(x label.Label, tw uint64) bool {
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
	if err := quick.Check(g, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// fixedKeySchedule is fixedKey's schedule as the kernel carried it, a
// literal, before expandKey.
var fixedKeySchedule = [11][16]byte{
	{0x4d, 0x41, 0x58, 0x65, 0x6c, 0x65, 0x72, 0x61, 0x74, 0x6f, 0x72, 0x2d, 0x47, 0x43, 0x48, 0x31},
	{0x56, 0x13, 0x9f, 0xc5, 0x3a, 0x76, 0xed, 0xa4, 0x4e, 0x19, 0x9f, 0x89, 0x09, 0x5a, 0xd7, 0xb8},
	{0xea, 0x1d, 0xf3, 0xc4, 0xd0, 0x6b, 0x1e, 0x60, 0x9e, 0x72, 0x81, 0xe9, 0x97, 0x28, 0x56, 0x51},
	{0xda, 0xac, 0x22, 0x4c, 0x0a, 0xc7, 0x3c, 0x2c, 0x94, 0xb5, 0xbd, 0xc5, 0x03, 0x9d, 0xeb, 0x94},
	{0x8c, 0x45, 0x00, 0x37, 0x86, 0x82, 0x3c, 0x1b, 0x12, 0x37, 0x81, 0xde, 0x11, 0xaa, 0x6a, 0x4a},
	{0x30, 0x47, 0xd6, 0xb5, 0xb6, 0xc5, 0xea, 0xae, 0xa4, 0xf2, 0x6b, 0x70, 0xb5, 0x58, 0x01, 0x3a},
	{0x7a, 0x3b, 0x56, 0x60, 0xcc, 0xfe, 0xbc, 0xce, 0x68, 0x0c, 0xd7, 0xbe, 0xdd, 0x54, 0xd6, 0x84},
	{0x1a, 0xcd, 0x09, 0xa1, 0xd6, 0x33, 0xb5, 0x6f, 0xbe, 0x3f, 0x62, 0xd1, 0x63, 0x6b, 0xb4, 0x55},
	{0xe5, 0x40, 0xf5, 0x5a, 0x33, 0x73, 0x40, 0x35, 0x8d, 0x4c, 0x22, 0xe4, 0xee, 0x27, 0x96, 0xb1},
	{0x32, 0xd0, 0x3d, 0x72, 0x01, 0xa3, 0x7d, 0x47, 0x8c, 0xef, 0x5f, 0xa3, 0x62, 0xc8, 0xc9, 0x12},
	{0xec, 0x0d, 0xf4, 0xd8, 0xed, 0xae, 0x89, 0x9f, 0x61, 0x41, 0xd6, 0x3c, 0x03, 0x89, 0x1f, 0x2e},
}

// encryptBytewise is AES-128 from an expanded schedule, one byte at a
// time as FIPS-197 §5.1 states it: the state is column-major, byte
// r + 4c in row r of column c.
func encryptBytewise(rk *[11][16]byte, in [16]byte) [16]byte {
	xtime := func(b byte) byte { return b<<1 ^ b>>7*0x1b }
	s := in
	for i := range s {
		s[i] ^= rk[0][i]
	}
	for r := 1; r <= 10; r++ {
		var t [16]byte
		for c := 0; c < 4; c++ {
			for row := 0; row < 4; row++ { // SubBytes and ShiftRows
				t[row+4*c] = sbox[s[row+4*((c+row)%4)]]
			}
		}
		if r < 10 {
			for c := 0; c < 16; c += 4 { // MixColumns
				a0, a1, a2, a3 := t[c], t[c+1], t[c+2], t[c+3]
				all := a0 ^ a1 ^ a2 ^ a3
				t[c] ^= all ^ xtime(a0^a1)
				t[c+1] ^= all ^ xtime(a1^a2)
				t[c+2] ^= all ^ xtime(a2^a3)
				t[c+3] ^= all ^ xtime(a3^a0)
			}
		}
		for i := range t {
			s[i] = t[i] ^ rk[r][i]
		}
	}
	return s
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

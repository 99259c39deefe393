package gchash

import (
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

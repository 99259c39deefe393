// Package gchash implements the fixed-key block-cipher garbling hash of
// Bellare, Hoang, Keelveedhi and Rogaway ("Efficient Garbling from a
// Fixed-Key Blockcipher", IEEE S&P 2013), which MAXelerator instantiates
// with a single-stage AES core on the FPGA.
//
// The hash is H(x, T) = π(K) ⊕ K with K = 2x ⊕ T, where π is AES-128
// under a fixed public key and T is a per-gate unique tweak. The
// Davies–Meyer-style feed-forward makes H non-invertible even though π
// is a public permutation, and the GF(2^128) doubling of x breaks the
// symmetry between hash inputs that share a tweak.
//
// The package also provides a SHA-256-based hash with the same
// interface, used by the ablation benchmarks to quantify the cost of
// the SHA-based garbling that the FPGA overlay baseline [Fang et al.]
// pays for.
package gchash

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"maxelerator/internal/label"
)

// Hasher computes the garbling hash H(x, T) for wire label x and gate
// tweak T. Implementations must be deterministic and safe for
// concurrent use after construction.
type Hasher interface {
	// Hash returns H(x, T).
	Hash(x label.Label, tweak uint64) label.Label
	// HashInto computes H(x, T) into dst, sparing the caller the label
	// copies of Hash. The garbling walkers do not come through here —
	// they garble whole ANDs, two at a time, with (*AES).GarbleANDs and
	// EvalANDs.
	HashInto(x *label.Label, tweak uint64, dst *label.Label)
	// Name identifies the hash construction for reports.
	Name() string
}

// fixedKey is the public fixed AES key. Any constant works; security
// rests on the permutation being fixed and public, not secret. The
// value spells out the construction for debuggability.
var fixedKey = [16]byte{
	0x4d, 0x41, 0x58, 0x65, 0x6c, 0x65, 0x72, 0x61, // "MAXelera"
	0x74, 0x6f, 0x72, 0x2d, 0x47, 0x43, 0x48, 0x31, // "tor-GCH1"
}

// roundKeys is fixedKey's schedule, which the amd64 kernel encrypts
// with directly.
var roundKeys = expandKey(fixedKey)

// AES is the fixed-key AES-128 garbling hash. On amd64 with AES-NI it
// hashes through the kernel of hashand_amd64.s; elsewhere, and under the
// purego build tag, through the portable loops below, which call
// crypto/aes one block at a time. The two are bit-for-bit the same
// function (TestHashANDMatchesGeneric).
type AES struct {
	block cipher.Block
}

// fixedAES is the process's one fixed-key hasher. It holds nothing
// mutable, so every garbler, evaluator and session shares it.
var fixedAES = &AES{block: mustCipher(fixedKey)}

// mustCipher keys crypto/aes with a fixed public key.
func mustCipher(key [16]byte) cipher.Block {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("gchash: keying fixed-key AES: %v", err)) // a 16-byte key cannot fail
	}
	return b
}

// MustAES returns the fixed-key AES hasher: the same one on every
// call, keyed once per process.
func MustAES() *AES { return fixedAES }

// Name implements Hasher.
func (h *AES) Name() string { return "fixed-key-aes" }

// Hash implements Hasher.
func (h *AES) Hash(x label.Label, tweak uint64) label.Label {
	var out label.Label
	h.HashInto(&x, tweak, &out)
	return out
}

// HashInto implements Hasher. It allocates nothing on the kernel path.
func (h *AES) HashInto(x *label.Label, tweak uint64, dst *label.Label) {
	h.hashInto(x, tweak, dst)
}

// hashIntoGo is the portable HashInto: the fallback, and the oracle the
// kernel is tested against. Its cipher input and output escape through
// cipher.Block, two 16-byte heap objects per call.
func (h *AES) hashIntoGo(x *label.Label, tweak uint64, dst *label.Label) {
	k := x.Double()
	// Fold the tweak into the low 8 bytes of K (little endian), leaving
	// the high bytes to the doubled label.
	t := binary.LittleEndian.Uint64(k[0:8]) ^ tweak
	binary.LittleEndian.PutUint64(k[0:8], t)
	var ct label.Label
	h.block.Encrypt(ct[:], k[:])
	ct.XorInto(&k, dst)
}

// ANDBlocks is the caller-owned working memory of HashAND, and of the
// portable GarbleANDs and EvalANDs: the labels one AND gate hashes,
// their hashes, and the cipher inputs in between. It belongs to whoever
// walks the circuit — one per Garbler, one per Evaluator — and never to
// the *AES, which per-worker garblers share.
// The portable path hands its arrays to the cipher, which makes the whole
// struct escape, so a walker allocates it once (or embeds it in an object
// already on the heap) and reuses it for every gate.
type ANDBlocks struct {
	// X holds the labels to hash: a⁰, a¹, b⁰, b¹ when garbling (n = 4),
	// the two active labels a, b when evaluating (n = 2).
	X [4]label.Label
	// H receives H(X[i], Tᵢ).
	H [4]label.Label
	k [4]label.Label
}

// HashAND hashes the first n labels of s.X into s.H with the tweak
// schedule of a half-gate AND: the first n/2 labels (wire a's) under
// tweak, the rest (wire b's) under tweak+1. n is 4 for the garbler or 2
// for the evaluator; any other n panics. It allocates nothing; H(x, T)
// is bit-for-bit what Hash and HashInto return.
func (h *AES) HashAND(s *ANDBlocks, n int, tweak uint64) {
	if n != 2 && n != 4 {
		panic(fmt.Sprintf("gchash: HashAND of %d labels; a half-gate AND hashes 2 or 4", n))
	}
	h.hashAND(s, n, tweak)
}

// hashANDGo is the portable HashAND: the fallback, and the oracle the
// kernel is tested against.
func (h *AES) hashANDGo(s *ANDBlocks, n int, tweak uint64) {
	for i := 0; i < n; i++ {
		t := tweak
		if i >= n/2 {
			t++
		}
		k := &s.k[i]
		s.X[i].DoubleInto(k)
		binary.LittleEndian.PutUint64(k[0:8], binary.LittleEndian.Uint64(k[0:8])^t)
		h.block.Encrypt(s.H[i][:], k[:])
		s.H[i].XorInto(k, &s.H[i])
	}
}

// SHA256 is a hash with the same interface built from SHA-256. It
// models the SHA-based garbling cost of the overlay baseline and
// exists only for the ablation benchmarks; the accelerator itself uses
// fixed-key AES.
type SHA256 struct{}

// NewSHA256 constructs the SHA-256 garbling hash.
func NewSHA256() *SHA256 { return &SHA256{} }

// Name implements Hasher.
func (*SHA256) Name() string { return "sha256" }

// Hash implements Hasher.
func (s *SHA256) Hash(x label.Label, tweak uint64) label.Label {
	var out label.Label
	s.HashInto(&x, tweak, &out)
	return out
}

// HashInto implements Hasher.
func (*SHA256) HashInto(x *label.Label, tweak uint64, dst *label.Label) {
	var buf [label.Size + 8]byte
	copy(buf[:label.Size], x[:])
	binary.LittleEndian.PutUint64(buf[label.Size:], tweak)
	sum := sha256.Sum256(buf[:])
	copy(dst[:], sum[:label.Size])
}

var (
	_ Hasher = (*AES)(nil)
	_ Hasher = (*SHA256)(nil)
)

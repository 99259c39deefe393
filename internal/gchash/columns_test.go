package gchash

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"maxelerator/internal/label"
)

// TestCounterKernelMatchesGeneric: encryptCounters is the portable
// loop for every block count the kernel splits into eights, fours and
// ones, lo wrapping modulo 2⁶⁴ without a carry into hi.
func TestCounterKernelMatchesGeneric(t *testing.T) {
	key := [16]byte{3, 1, 4, 1, 5, 9, 2, 6}
	s, block := NewSchedule(key), mustCipher(key)
	for _, lo := range []uint64{0, 1 << 32, math.MaxUint64 - 5} {
		for n := 0; n <= 21; n++ {
			got, want := make([]byte, 16*n), make([]byte, 16*n)
			encryptCounters(&s, 0xfeedface, lo, got)
			encryptCountersGo(block, 0xfeedface, lo, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("lo=%#x, %d blocks: kernel %x, portable %x", lo, n, got, want)
			}
		}
	}
}

// TestColumnsMatchCTRs: a Columns read is, column by column, the read
// of the same size from an independent CTR under the column's key:
// random read splits, one-byte reads across many lookahead boundaries,
// and batch sizes 1 … 9 001 in a row.
func TestColumnsMatchCTRs(t *testing.T) {
	const ncols = 7
	keys := make([][16]byte, ncols)
	for i := range keys {
		keys[i][0], keys[i][15] = byte(i), 0x5a
	}
	run := func(sizes []int) error {
		cols := NewColumns(keys)
		ctrs := make([]CTR, ncols)
		for i, k := range keys {
			ctrs[i], _ = NewCTR(k)
			if cols.Key(i) != k {
				return fmt.Errorf("column %d: key %x, want %x", i, cols.Key(i), k)
			}
		}
		for r, n := range sizes {
			got := bytes.Repeat([]byte{0xa5}, ncols*n) // stale bytes must not reach the output
			cols.Fill(got, n)
			for i := range ctrs {
				want := make([]byte, n)
				ctrs[i].Fill(want)
				if !bytes.Equal(got[i*n:(i+1)*n], want) {
					return fmt.Errorf("read %d of %d bytes, column %d: %x, want %x", r, n, i, got[i*n:(i+1)*n], want)
				}
			}
		}
		return nil
	}

	ones := make([]int, 5*ctrLookahead+3)
	for i := range ones {
		ones[i] = 1
	}
	batches := []int{1, 2, 7, 8, 16, 63, 64, 65, 100, 127, 128, 129, 512, 1000, 4096, 4097, 9001, 1, 3}
	for name, sizes := range map[string][]int{"n=1": ones, "batches": batches} {
		if err := run(sizes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		sizes := make([]int, 40)
		for i := range sizes {
			switch rng.Intn(3) {
			case 0:
				sizes[i] = 1
			case 1:
				sizes[i] = rng.Intn(ctrLookahead + 1)
			default:
				sizes[i] = ctrLookahead + rng.Intn(3*ctrLookahead)
			}
		}
		if err := run(sizes); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRowHashMatchesReference: HashRows is H(j, x) = π(π(x) ⊕ j) ⊕ π(x)
// with π AES under rowKey from crypto/aes alone, the tweak little-endian
// in bytes 0..7, for random rows and for j near 2³² and 2⁶⁴ − 1, where
// j+k wraps; x and h may alias.
func TestRowHashMatchesReference(t *testing.T) {
	pi, err := aes.NewCipher(rowKey[:])
	if err != nil {
		t.Fatal(err)
	}
	ref := func(j uint64, x label.Label) (h label.Label) {
		var p, q [16]byte
		pi.Encrypt(p[:], x[:])
		q = p
		binary.LittleEndian.PutUint64(q[:8], binary.LittleEndian.Uint64(q[:8])^j)
		pi.Encrypt(h[:], q[:])
		for i := range h {
			h[i] ^= p[i]
		}
		return h
	}
	check := func(x [8]label.Label, j uint64) bool {
		var h [8]label.Label
		HashRows(&x, j, &h)
		in := x
		HashRows(&in, j, &in)
		for k := range x {
			if want := ref(j+uint64(k), x[k]); h[k] != want || in[k] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	var x [8]label.Label
	for k := range x {
		x[k] = label.MustRandom()
	}
	for _, j := range []uint64{0, 1<<32 - 3, 1 << 32, math.MaxUint64 - 3, math.MaxUint64} {
		if !check(x, j) {
			t.Fatalf("j=%#x: HashRows disagrees with the crypto/aes formula", j)
		}
	}
	var rowsApart [8]label.Label
	if HashRows(&x, 5, &rowsApart); rowsApart[1] == ref(5, x[1]) {
		t.Fatal("row 1 hashed under row 0's tweak")
	}
}

var rowSink [8]label.Label

// BenchmarkRowHash prices the OT extension's row hash, eight rows a
// call; ns/row is what a transfer pays per hash.
func BenchmarkRowHash(b *testing.B) {
	var x [8]label.Label
	for k := range x {
		x[k] = label.MustRandom()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashRows(&x, uint64(8*i), &rowSink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/row")
}

// BenchmarkColumns prices one end's column PRGs: Kappa = 128 columns
// read n bytes at a time, n = 1 (a per-round batch of 8 transfers) and
// n = 512 (a 4 096-transfer batch).
func BenchmarkColumns(b *testing.B) {
	keys := make([][16]byte, 128)
	for i := range keys {
		keys[i][0] = byte(i)
	}
	for _, n := range []int{1, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cols := NewColumns(keys)
			dst := make([]byte, len(keys)*n)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cols.Fill(dst, n)
			}
		})
	}
}

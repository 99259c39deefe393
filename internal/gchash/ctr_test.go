package gchash

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// TestCTRReadSplits: however a stream is read — single bytes, runs
// that straddle the lookahead, runs that bypass it — the bytes are
// those of one read of crypto/cipher's AES-CTR stream from a zero IV.
func TestCTRReadSplits(t *testing.T) {
	const total = 8 * ctrLookahead
	key := [16]byte{1, 2, 3}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	cipher.NewCTR(blk, make([]byte, aes.BlockSize)).XORKeyStream(want, want)

	check := func(splitSeed int64) bool {
		rng := mrand.New(mrand.NewSource(splitSeed))
		c, err := NewCTR(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, total)
		for len(got) < total {
			n := 1
			switch rng.Intn(3) {
			case 1:
				n = 1 + rng.Intn(ctrLookahead)
			case 2:
				n = ctrLookahead + rng.Intn(2*ctrLookahead)
			}
			n = min(n, total-len(got))
			// Stale bytes in the destination must not reach the output.
			got = append(got, bytes.Repeat([]byte{0xa5}, n)...)
			c.Read(got[len(got)-n:])
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCTRStreamsDiverge(t *testing.T) {
	var k1, k2 [16]byte
	k2[0] = 1
	c1, err := NewCTR(k1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCTR(k2)
	if err != nil {
		t.Fatal(err)
	}
	var pad1, pad2 [32]byte
	c1.Read(pad1[:])
	c2.Read(pad2[:])
	if pad1 == pad2 {
		t.Fatal("different keys produced identical pads")
	}
}

// TestCTRSeekAndBlockAt holds Seek and BlockAt to AES_k(hi ‖ lo)
// computed with crypto/aes: after Seek(hi, lo), block n read is
// AES_k(hi ‖ lo+n), lo wrapping without a carry into hi; BlockAt is the
// one block and leaves the stream where it was, mid-lookahead too; a
// copy reads on from where the original stood, and the original from
// where it was.
func TestCTRSeekAndBlockAt(t *testing.T) {
	key := [16]byte{9, 8, 7, 6, 5}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	aesAt := func(hi, lo uint64) (out [16]byte) {
		var in [16]byte
		binary.BigEndian.PutUint64(in[:8], hi)
		binary.BigEndian.PutUint64(in[8:], lo)
		blk.Encrypt(out[:], in[:])
		return out
	}
	c, err := NewCTR(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []struct{ hi, lo uint64 }{{0, 0}, {7, 3}, {math.MaxUint64, 0}, {math.MaxUint64 - 1, 41}, {5, math.MaxUint64 - 2}} {
		c.Seek(at.hi, at.lo)
		for n := range uint64(6) { // 6 blocks: past one lookahead, and past the wrap at lo = 2⁶⁴−1
			var got [16]byte
			c.Read(got[:])
			if want := aesAt(at.hi, at.lo+n); got != want {
				t.Fatalf("Seek(%d, %d): block %d = %x, want %x", at.hi, at.lo, n, got, want)
			}
			var one [16]byte
			c.BlockAt(one[:], at.lo, at.hi) // the halves swapped: any block, anywhere
			if want := aesAt(at.lo, at.hi); one != want {
				t.Fatalf("BlockAt(%d, %d) = %x, want %x", at.lo, at.hi, one, want)
			}
		}
		cp := c
		var a, b [16]byte
		cp.Read(a[:])
		c.Read(b[:])
		if want := aesAt(at.hi, at.lo+6); a != want || b != want {
			t.Fatalf("Seek(%d, %d): a copy read %x and the original %x at block 6, want %x", at.hi, at.lo, a, b, want)
		}
	}
}

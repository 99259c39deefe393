package gchash

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// ctrLookahead is how much of a CTR stream is expanded at a time. The
// OT extension's per-round batch reads one byte a column; drawing it
// from the lookahead costs a copy where a one-byte read would cost an
// AES block.
const ctrLookahead = 64

// CTR is AES-128 in counter mode under a 16-byte key: block n of the
// stream is AES_k(hi ‖ lo+n), both halves big-endian. The low half
// wraps modulo 2⁶⁴ without carrying into the high half, so the high
// half names a domain of 2⁶⁴ blocks that no read leaves. Reads go
// through a 64-byte lookahead, and the bytes read do not depend on how
// the reads are split. It is every keyed stream of the serve path: a
// request's row labels, evaluator-input labels and Δ, and the OT
// extension's column PRGs.
//
// A CTR is not safe for concurrent use, but its copies are independent
// streams over one key schedule, which they share read-only: a copy
// may be read and moved on one goroutine while another reads the
// original.
type CTR struct {
	block  cipher.Block
	hi, lo uint64 // the next counter block to encrypt
	buf    [ctrLookahead]byte
	off    int // next unread byte of buf; ctrLookahead when it is spent
}

// NewCTR keys a stream with key and positions it at 0 ‖ 0.
func NewCTR(key [16]byte) (CTR, error) {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		return CTR{}, fmt.Errorf("gchash: keying counter stream: %w", err)
	}
	return CTR{block: b, off: ctrLookahead}, nil
}

// Seek moves the stream to hi ‖ lo: the next byte read is the first of
// AES_k(hi ‖ lo).
func (c *CTR) Seek(hi, lo uint64) { c.hi, c.lo, c.off = hi, lo, ctrLookahead }

// Read fills p with the next len(p) bytes of the stream. It never
// fails.
func (c *CTR) Read(p []byte) (int, error) {
	c.Fill(p)
	return len(p), nil
}

// Fill is Read without its results, which keeps it small enough for the
// compiler to inline: a read the lookahead serves, as nearly all of the
// OT extension's per-round column reads are, is then a copy and no
// call.
func (c *CTR) Fill(p []byte) {
	if len(p) <= ctrLookahead-c.off {
		c.off += copy(p, c.buf[c.off:])
		return
	}
	c.refill(p)
}

// refill is Fill's path through the cipher: whole lookaheads go
// straight to dst, the rest through a freshly expanded buf.
func (c *CTR) refill(dst []byte) {
	n := copy(dst, c.buf[c.off:])
	dst = dst[n:]
	if n = len(dst) &^ (ctrLookahead - 1); n > 0 {
		c.keystream(dst[:n])
		dst = dst[n:]
	}
	c.keystream(c.buf[:])
	c.off = copy(dst, c.buf[:])
}

// keystream fills dst, whole blocks, with the stream's next blocks.
func (c *CTR) keystream(dst []byte) {
	for b := dst; len(b) > 0; b = b[aes.BlockSize:] {
		c.BlockAt(b, c.hi, c.lo)
		c.lo++
	}
}

// BlockAt encrypts the one counter block hi ‖ lo into dst[:16] and
// leaves the stream where it is.
func (c *CTR) BlockAt(dst []byte, hi, lo uint64) {
	binary.BigEndian.PutUint64(dst, hi)
	binary.BigEndian.PutUint64(dst[8:], lo)
	c.block.Encrypt(dst, dst)
}

// Block returns the stream's block cipher, for an oracle that checks
// the stream against crypto/cipher's own counter mode.
func (c *CTR) Block() cipher.Block { return c.block }

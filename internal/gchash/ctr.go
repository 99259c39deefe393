package gchash

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// ctrLookahead is how much of a counter stream is expanded at a time.
// The OT extension's per-round batch reads one byte a column; drawing
// it from the lookahead costs a copy where a one-byte read would cost
// an AES block.
const ctrLookahead = 64

// sbox is the AES S-box (FIPS-197 §5.1.1), built from its definition:
// p walks the powers of 3, a generator of GF(2⁸)*, q the matching
// powers of 3⁻¹, and sbox[p] is the affine map of q = p⁻¹.
var sbox = func() (s [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= p<<1 ^ p>>7*0x1b
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		q ^= q >> 7 * 0x09
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^ bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}()

// expandKey is the AES-128 key schedule of FIPS-197 §5.2: round key i
// is w[4i..4i+3] as bytes, and round key 0 is the key itself.
// TestExpandKeyMatchesCryptoAES pins it to crypto/aes.
func expandKey(key [16]byte) (rk [11][16]byte) {
	rk[0] = key
	rcon := byte(1)
	for i := 1; i < len(rk); i++ {
		prev := &rk[i-1]
		w := [4]byte{sbox[prev[13]] ^ rcon, sbox[prev[14]], sbox[prev[15]], sbox[prev[12]]}
		for j := range rk[i] {
			w[j%4] ^= prev[j]
			rk[i][j] = w[j%4]
		}
		rcon = rcon<<1 ^ rcon>>7*0x1b
	}
	return rk
}

// Schedule is an AES-128 key, expanded: what the AES-NI kernel
// encrypts with. Where the kernel does not run (see useKernel), it
// holds crypto/aes's cipher for the key instead. Once built it is only
// read, so any number of goroutines may use it.
type Schedule struct {
	rk    [11][16]byte
	block cipher.Block // nil where the kernel runs
}

// NewSchedule expands key.
func NewSchedule(key [16]byte) Schedule {
	s := Schedule{rk: expandKey(key)}
	if !useKernel {
		s.block = mustCipher(key)
	}
	return s
}

// BlockAt encrypts the one counter block hi ‖ lo, both halves
// big-endian, into dst[:16].
func (s *Schedule) BlockAt(dst []byte, hi, lo uint64) {
	encryptCounters(s, hi, lo, dst[:aes.BlockSize])
}

// Stream returns a counter stream under s positioned at 0 ‖ 0. The
// stream reads s, which must not change while it is in use.
func (s *Schedule) Stream() CTR { return CTR{key: s, off: ctrLookahead} }

// encryptCountersGo is the portable encryptCounters under b: the
// fallback, and the oracle the kernel is tested against. dst is handed
// to the cipher, so it escapes.
func encryptCountersGo(b cipher.Block, hi, lo uint64, dst []byte) {
	for ; len(dst) > 0; dst = dst[aes.BlockSize:] {
		binary.BigEndian.PutUint64(dst, hi)
		binary.BigEndian.PutUint64(dst[8:], lo)
		b.Encrypt(dst, dst)
		lo++
	}
}

// CTR is AES-128 in counter mode under a 16-byte key: block n of the
// stream is AES_k(hi ‖ lo+n), both halves big-endian. The low half
// wraps modulo 2⁶⁴ without carrying into the high half, so the high
// half names a domain of 2⁶⁴ blocks that no read leaves. Reads go
// through a 64-byte lookahead, and the bytes read do not depend on how
// the reads are split. It is the keyed stream of a request's row
// labels and evaluator-input labels (gc.Request).
//
// A CTR is not safe for concurrent use, but its copies are independent
// streams over one key schedule, which they share read-only: a copy
// reads on from where the original stood, on any goroutine.
type CTR struct {
	key    *Schedule
	hi, lo uint64 // the next counter block to encrypt
	buf    [ctrLookahead]byte
	off    int // next unread byte of buf; ctrLookahead when it is spent
}

// NewCTR keys a stream with key and positions it at 0 ‖ 0. It never
// fails.
func NewCTR(key [16]byte) (CTR, error) {
	s := NewSchedule(key)
	return s.Stream(), nil
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
// compiler to inline: a read the lookahead serves is then a copy and no
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
	encryptCounters(c.key, c.hi, c.lo, dst)
	c.lo += uint64(len(dst) / aes.BlockSize)
}

// BlockAt encrypts the one counter block hi ‖ lo into dst[:16] and
// leaves the stream where it is.
func (c *CTR) BlockAt(dst []byte, hi, lo uint64) { c.key.BlockAt(dst, hi, lo) }

// Columns is n counter streams read in lockstep, each from 0 ‖ 0: the
// column PRGs of one end of the OT extension, where every batch draws
// the same number of bytes from every column. Column i's bytes are
// those of a CTR under key i read with the same sizes; the streams
// share one counter and one offset into a lookahead matrix, so a read
// of n bytes from every column is one call, and a refill one pass of
// the kernel over the n schedules. Not safe for concurrent use.
type Columns struct {
	keys []Schedule
	lo   uint64 // the next counter block of every column
	buf  []byte // column i's lookahead is buf[i·ctrLookahead:][:ctrLookahead]
	off  int    // next unread byte of each column's lookahead
}

// NewColumns keys one column stream per key.
func NewColumns[K ~[16]byte](keys []K) *Columns {
	c := &Columns{keys: make([]Schedule, len(keys)), buf: make([]byte, len(keys)*ctrLookahead), off: ctrLookahead}
	for i, k := range keys {
		c.keys[i] = NewSchedule(k)
	}
	return c
}

// Key returns column i's key, for an oracle that checks the columns
// against crypto/cipher's own counter mode.
func (c *Columns) Key(i int) [16]byte { return c.keys[i].rk[0] }

// Fill writes the next n bytes of every column to dst, column-major:
// column i's at dst[i·n:(i+1)·n].
func (c *Columns) Fill(dst []byte, n int) {
	dst = dst[:len(c.keys)*n]
	if n > ctrLookahead-c.off {
		c.refill(dst, n)
		return
	}
	if n == 1 { // a per-round batch of up to 8 transfers: a byte a column, gathered eight at a time
		la := c.buf[c.off:]
		i := 0
		for ; i+8 <= len(dst); i += 8 {
			g := la[i*ctrLookahead:]
			_ = g[7*ctrLookahead]
			binary.LittleEndian.PutUint64(dst[i:], uint64(g[0])|uint64(g[ctrLookahead])<<8|uint64(g[2*ctrLookahead])<<16|uint64(g[3*ctrLookahead])<<24|
				uint64(g[4*ctrLookahead])<<32|uint64(g[5*ctrLookahead])<<40|uint64(g[6*ctrLookahead])<<48|uint64(g[7*ctrLookahead])<<56)
		}
		for ; i < len(dst); i++ {
			dst[i] = la[i*ctrLookahead]
		}
	} else {
		for i := range c.keys {
			copy(dst[i*n:(i+1)*n], c.buf[i*ctrLookahead+c.off:])
		}
	}
	c.off += n
}

// refill is Fill's path through the cipher, CTR.refill for every
// column: the rest of the lookahead, then whole lookaheads straight to
// dst, then the tail through a freshly expanded lookahead.
func (c *Columns) refill(dst []byte, n int) {
	have := ctrLookahead - c.off
	whole := (n - have) &^ (ctrLookahead - 1)
	for i := range c.keys {
		d := dst[i*n : (i+1)*n]
		la := c.buf[i*ctrLookahead : (i+1)*ctrLookahead]
		copy(d, la[c.off:])
		encryptCounters(&c.keys[i], 0, c.lo, d[have:have+whole])
		encryptCounters(&c.keys[i], 0, c.lo+uint64(whole/aes.BlockSize), la)
		copy(d[have+whole:], la)
	}
	c.lo += uint64((whole + ctrLookahead) / aes.BlockSize)
	c.off = n - have - whole
}

//lint:file-ignore SA1019 the base OT needs a point addition (B = A + b·G); crypto/ecdh exposes none and crypto/elliptic's is the only one in the standard library

// Package ot implements the oblivious-transfer stack of the protocol:
// Chou–Orlandi's "simplest OT" as the base OT, over the NIST P-256
// curve (the standard library's constant-time assembly), and the IKNP
// OT extension (Ishai–Kilian–Nissim–Petrank, CRYPTO 2003 — reference
// [24] of the paper) that stretches κ = 128 base transfers into
// arbitrarily many label transfers using only symmetric cryptography.
//
// The security model is honest-but-curious, matching the paper (§3).
// Input from the peer is still never trusted to be well-formed: every
// received point is length-checked, on the curve and not the identity
// before it is used, and every scalar is uniform in [1, n−1].
package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// This file is the only one that touches the curve: everything the
// base OT needs of the group — scalars, points, the wire encoding and
// the key derivation — is behind the functions below.

var curve = elliptic.P256()

const (
	// scalarLen is the byte length of a scalar (the order n is 256 bits).
	scalarLen = 32
	// elementLen is the byte length of a point on the wire: the SEC 1
	// compressed form, a 0x02/0x03 prefix carrying y's parity and the
	// 32-byte x coordinate.
	elementLen = 1 + 32
)

// orderBytes is the group order n, big-endian, for comparing scalars
// without leaving byte slices.
var orderBytes = curve.Params().N.FillBytes(make([]byte, scalarLen))

// point is a curve point in affine coordinates. The identity does not
// occur in one: it has no compressed encoding, so unmarshalElement
// cannot produce it, BaseSend refuses the one input that would reach it
// (B = A), and BaseReceive reaches it only by drawing b = n − a.
type point struct{ x, y *big.Int }

// randScalar fills k (scalarLen bytes) with a scalar uniform in
// [1, n−1], by rejection: n is within 2⁻³² of 2²⁵⁶, so a second draw is
// a once-in-four-billion event.
func randScalar(rnd io.Reader, k []byte) error {
	var zero [scalarLen]byte
	for {
		if _, err := io.ReadFull(rnd, k); err != nil {
			return fmt.Errorf("ot: drawing scalar: %w", err)
		}
		if bytes.Compare(k, orderBytes) < 0 && !bytes.Equal(k, zero[:]) {
			return nil
		}
	}
}

// baseMult returns k·G.
func baseMult(k []byte) point {
	x, y := curve.ScalarBaseMult(k)
	return point{x, y}
}

// mult returns k·p.
func (p point) mult(k []byte) point {
	x, y := curve.ScalarMult(p.x, p.y, k)
	return point{x, y}
}

// add returns p + q. p + (−p) is the identity, which the curve API
// returns as (0, 0); callers rule that case out before adding.
func (p point) add(q point) point {
	x, y := curve.Add(p.x, p.y, q.x, q.y)
	return point{x, y}
}

// neg returns −p = (x, P − y). No P-256 point has y = 0 (the group has
// prime order, so no element of order two), so the result is reduced.
func (p point) neg() point {
	return point{p.x, new(big.Int).Sub(curve.Params().P, p.y)}
}

// marshalElement writes p's compressed encoding into dst (elementLen
// bytes).
func marshalElement(dst []byte, p point) {
	dst[0] = 2 | byte(p.y.Bit(0))
	p.x.FillBytes(dst[1:elementLen])
}

// unmarshalElement parses and validates a point received from the
// peer: exactly elementLen bytes, a compressed-form prefix, x below the
// field prime and x³ − 3x + b a square — that is, a point on the curve.
// The identity has no such encoding (SEC 1 writes it as the single byte
// 0x00), so it is rejected with everything else that is malformed.
func unmarshalElement(b []byte) (point, error) {
	if len(b) != elementLen {
		return point{}, fmt.Errorf("ot: group element of %d bytes, want %d", len(b), elementLen)
	}
	x, y := elliptic.UnmarshalCompressed(curve, b)
	if x == nil {
		return point{}, fmt.Errorf("ot: group element is not a compressed P-256 point")
	}
	return point{x, y}, nil
}

// transferKey derives the one-time-pad key of one transfer from the
// shared point: H(index ‖ A ‖ B ‖ shared), truncated to a Message. The
// index and the transcript (a and b are the wire encodings of A and
// B_index) bind the key to this transfer of this run.
func transferKey(index int, a, b []byte, shared point) Message {
	var buf [8 + 3*elementLen]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(index))
	copy(buf[8:], a)
	copy(buf[8+elementLen:], b)
	marshalElement(buf[8+2*elementLen:], shared)
	sum := sha256.Sum256(buf[:])
	var key Message
	copy(key[:], sum[:])
	return key
}

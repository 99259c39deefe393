package ot

import (
	"bytes"
	"fmt"
	"io"

	"maxelerator/internal/wire"
)

// Message is a fixed 16-byte OT payload — exactly one wire label or
// one PRG seed.
type Message [16]byte

func xorMsg(a, b Message) Message {
	var out Message
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// BaseSend runs the sender side of a batch of 1-out-of-2 base OTs over
// conn: for each pair, the receiver learns exactly one message. This is
// Chou–Orlandi's simplest OT: the sender publishes A = a·G; the
// receiver answers B = b·G (choice 0) or A + b·G (choice 1); the
// per-transfer keys are k0 = H(a·B) and k1 = H(a·(B − A)), of which the
// receiver can compute only k_choice = H(b·A).
//
// Three messages cross the wire: A (elementLen bytes), the B batch
// (elementLen per pair) and the ciphertexts (two Messages per pair).
func BaseSend(conn wire.Conn, rnd io.Reader, pairs [][2]Message) error {
	var a [scalarLen]byte
	if err := randScalar(rnd, a[:]); err != nil {
		return err
	}
	bigA := baseMult(a[:])
	var aEnc [elementLen]byte
	marshalElement(aEnc[:], bigA)
	if err := conn.SendMsg(aEnc[:]); err != nil {
		return fmt.Errorf("ot: base sender announcing A: %w", err)
	}
	// −a·A, so that a·(B − A) = a·B + (−a·A) costs one addition per
	// transfer instead of a second scalar multiplication.
	negAa := bigA.mult(a[:]).neg()

	resp, err := conn.RecvMsg()
	if err != nil {
		return fmt.Errorf("ot: base sender reading B batch: %w", err)
	}
	if len(resp) != elementLen*len(pairs) {
		return fmt.Errorf("ot: base sender got %d bytes of B values, want %d", len(resp), elementLen*len(pairs))
	}

	out := make([]byte, 0, len(pairs)*32)
	for i := range pairs {
		bEnc := resp[i*elementLen : (i+1)*elementLen]
		bigB, err := unmarshalElement(bEnc)
		if err != nil {
			return fmt.Errorf("ot: base sender transfer %d: %w", i, err)
		}
		// B = A makes B − A the identity, which has no encoding to hash.
		// An honest receiver lands there only by drawing b = a.
		if bytes.Equal(bEnc, aEnc[:]) {
			return fmt.Errorf("ot: base sender transfer %d: B equals A", i)
		}
		aB := bigB.mult(a[:])
		k0 := transferKey(i, aEnc[:], bEnc, aB)
		k1 := transferKey(i, aEnc[:], bEnc, aB.add(negAa))
		e0 := xorMsg(pairs[i][0], k0)
		e1 := xorMsg(pairs[i][1], k1)
		out = append(out, e0[:]...)
		out = append(out, e1[:]...)
	}
	if err := conn.SendMsg(out); err != nil {
		return fmt.Errorf("ot: base sender shipping ciphertexts: %w", err)
	}
	return nil
}

// BaseReceive runs the receiver side of BaseSend, returning the chosen
// message of each pair.
func BaseReceive(conn wire.Conn, rnd io.Reader, choices []bool) ([]Message, error) {
	aEnc, err := conn.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("ot: base receiver reading A: %w", err)
	}
	bigA, err := unmarshalElement(aEnc)
	if err != nil {
		return nil, fmt.Errorf("ot: base receiver: %w", err)
	}

	bs := make([]byte, scalarLen*len(choices))
	resp := make([]byte, elementLen*len(choices))
	for i, c := range choices {
		b := bs[i*scalarLen : (i+1)*scalarLen]
		if err := randScalar(rnd, b); err != nil {
			return nil, err
		}
		bigB := baseMult(b)
		if c {
			// A + b·G is the identity only for b = n − a; its (0, 0)
			// would marshal to a non-point the sender rejects.
			bigB = bigB.add(bigA)
		}
		marshalElement(resp[i*elementLen:], bigB)
	}
	if err := conn.SendMsg(resp); err != nil {
		return nil, fmt.Errorf("ot: base receiver answering B batch: %w", err)
	}

	// Derive the keys before blocking on the ciphertexts: the sender is
	// busy with its own scalar multiplications for exactly this long, so
	// the two sides' public-key work overlaps.
	keys := make([]Message, len(choices))
	for i := range choices {
		shared := bigA.mult(bs[i*scalarLen : (i+1)*scalarLen])
		keys[i] = transferKey(i, aEnc, resp[i*elementLen:(i+1)*elementLen], shared)
	}

	cts, err := conn.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("ot: base receiver reading ciphertexts: %w", err)
	}
	if len(cts) != 32*len(choices) {
		return nil, fmt.Errorf("ot: base receiver got %d ciphertext bytes, want %d", len(cts), 32*len(choices))
	}
	for i, c := range choices {
		var e Message
		off := i * 32
		if c {
			off += 16
		}
		copy(e[:], cts[off:off+16])
		keys[i] = xorMsg(e, keys[i])
	}
	return keys, nil
}

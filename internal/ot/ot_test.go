package ot

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/wire"
)

func randomPairs(t *testing.T, n int) [][2]Message {
	t.Helper()
	pairs := make([][2]Message, n)
	for i := range pairs {
		if _, err := rand.Read(pairs[i][0][:]); err != nil {
			t.Fatal(err)
		}
		if _, err := rand.Read(pairs[i][1][:]); err != nil {
			t.Fatal(err)
		}
	}
	return pairs
}

func randomChoices(rng *mrand.Rand, n int) []bool {
	c := make([]bool, n)
	for i := range c {
		c[i] = rng.Intn(2) == 1
	}
	return c
}

func runBaseOT(t *testing.T, pairs [][2]Message, choices []bool) ([]Message, error) {
	t.Helper()
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- BaseSend(a, rand.Reader, pairs) }()
	got, err := BaseReceive(b, rand.Reader, choices)
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
	return got, err
}

func TestBaseOTDeliversChosenMessage(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	pairs := randomPairs(t, 16)
	choices := randomChoices(rng, 16)
	got, err := runBaseOT(t, pairs, choices)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Fatalf("transfer %d (choice %v): wrong message", i, c)
		}
		other := pairs[i][1]
		if c {
			other = pairs[i][0]
		}
		if got[i] == other {
			t.Fatalf("transfer %d: received the unchosen message", i)
		}
	}
}

func TestBaseOTAllZeroAndAllOneChoices(t *testing.T) {
	pairs := randomPairs(t, 8)
	for _, c := range []bool{false, true} {
		choices := make([]bool, 8)
		for i := range choices {
			choices[i] = c
		}
		got, err := runBaseOT(t, pairs, choices)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			idx := 0
			if c {
				idx = 1
			}
			if got[i] != pairs[i][idx] {
				t.Fatalf("uniform choice %v transfer %d wrong", c, i)
			}
		}
	}
}

func TestBaseOTEmptyBatch(t *testing.T) {
	got, err := runBaseOT(t, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %d messages", len(got))
	}
}

// generatorEnc is the compressed encoding of the curve's base point.
func generatorEnc() []byte {
	params := curve.Params()
	enc := make([]byte, elementLen)
	marshalElement(enc, point{params.Gx, params.Gy})
	return enc
}

// nonResidueX returns an x below the field prime for which x³ − 3x + b
// has no square root, found independently of the code under test.
func nonResidueX(t *testing.T) *big.Int {
	t.Helper()
	params := curve.Params()
	for x := big.NewInt(1); x.BitLen() < 16; x.Add(x, big.NewInt(1)) {
		rhs := new(big.Int).Exp(x, big.NewInt(3), params.P)
		rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x))
		rhs.Add(rhs, params.B).Mod(rhs, params.P)
		if big.Jacobi(rhs, params.P) == -1 {
			return x
		}
	}
	t.Fatal("no non-residue x found")
	return nil
}

func TestGroupElementValidation(t *testing.T) {
	params := curve.Params()
	g := generatorEnc()
	withPrefix := func(prefix byte, x *big.Int) []byte {
		enc := make([]byte, elementLen)
		enc[0] = prefix
		x.FillBytes(enc[1:])
		return enc
	}
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	uncompressed := elliptic.Marshal(curve, params.Gx, params.Gy)

	reject := map[string][]byte{
		"empty":                    {},
		"three bytes":              make([]byte, 3),
		"one byte short":           g[:elementLen-1],
		"one byte long":            append(append([]byte{}, g...), 0),
		"SEC 1 identity (0x00)":    {0},
		"uncompressed generator":   uncompressed,
		"all-zero encoding":        make([]byte, elementLen),
		"prefix 0x00, valid x":     withPrefix(0, params.Gx),
		"prefix 0x04, valid x":     withPrefix(4, params.Gx),
		"prefix 0x05, valid x":     withPrefix(5, params.Gx),
		"x = p":                    withPrefix(2, params.P),
		"x = p + 5 (unreduced)":    withPrefix(2, new(big.Int).Add(params.P, big.NewInt(5))),
		"x = 2^256 - 1":            withPrefix(3, allOnes),
		"x with no square root":    withPrefix(2, nonResidueX(t)),
		"x with no root, odd flag": withPrefix(3, nonResidueX(t)),
	}
	for name, enc := range reject {
		if _, err := unmarshalElement(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Both square roots of a valid x are points, and the encoding is
	// canonical: marshal(unmarshal(e)) == e.
	for _, prefix := range []byte{2, 3} {
		enc := withPrefix(prefix, params.Gx)
		p, err := unmarshalElement(enc)
		if err != nil {
			t.Fatalf("generator with prefix %d rejected: %v", prefix, err)
		}
		if !curve.IsOnCurve(p.x, p.y) {
			t.Fatalf("prefix %d: accepted point is off the curve", prefix)
		}
		back := make([]byte, elementLen)
		marshalElement(back, p)
		if !bytes.Equal(back, enc) {
			t.Fatalf("prefix %d: round trip changed the encoding", prefix)
		}
	}
}

func FuzzUnmarshalElement(f *testing.F) {
	g := generatorEnc()
	f.Add(g)
	f.Add(make([]byte, elementLen))
	f.Add([]byte{0})
	f.Add(g[:elementLen-1])
	f.Add(elliptic.Marshal(curve, curve.Params().Gx, curve.Params().Gy))
	scalar := make([]byte, scalarLen)
	scalar[scalarLen-1] = 7
	f.Fuzz(func(t *testing.T, enc []byte) {
		p, err := unmarshalElement(enc)
		if err != nil {
			return
		}
		// Whatever is accepted must be safe to hand to the curve
		// arithmetic (which panics on an invalid point) and must encode
		// back to the bytes it came from.
		if len(enc) != elementLen || !curve.IsOnCurve(p.x, p.y) {
			t.Fatalf("accepted %x: not a %d-byte on-curve point", enc, elementLen)
		}
		_ = p.mult(scalar).add(p)
		back := make([]byte, elementLen)
		marshalElement(back, p)
		if !bytes.Equal(back, enc) {
			t.Fatalf("accepted %x re-encodes as %x", enc, back)
		}
	})
}

func TestRandScalarRange(t *testing.T) {
	// The draws come from the caller's reader and land in [1, n−1]:
	// zero and anything at or above the order are redrawn.
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	stream := append(make([]byte, scalarLen), orderBytes...) // 0, then n: both rejected
	stream = append(stream, bytes.Repeat([]byte{0xff}, scalarLen)...)
	stream = append(stream, nMinus1.FillBytes(make([]byte, scalarLen))...)
	k := make([]byte, scalarLen)
	if err := randScalar(bytes.NewReader(stream), k); err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(k).Cmp(nMinus1) != 0 {
		t.Fatalf("scalar %x, want n-1 (the first in-range draw)", k)
	}
	if err := randScalar(bytes.NewReader(make([]byte, 3*scalarLen)), k); err == nil {
		t.Fatal("an exhausted reader of zeros produced a scalar")
	}
}

// tapConn records every message sent through it.
type tapConn struct {
	wire.Conn
	sent [][]byte
}

func (c *tapConn) SendMsg(msg []byte) error {
	c.sent = append(c.sent, append([]byte(nil), msg...))
	return c.Conn.SendMsg(msg)
}

func (c *tapConn) SendMsgs(msgs [][]byte) error {
	for _, msg := range msgs {
		c.sent = append(c.sent, append([]byte(nil), msg...))
	}
	return c.Conn.SendMsgs(msgs)
}

// TestBaseOTKeyAgreement checks the keys themselves, not just the
// delivered message: with all-zero pairs the ciphertexts on the wire
// are the sender's (k0, k1), and the receiver's output is
// k_choice ⊕ its own key.
func TestBaseOTKeyAgreement(t *testing.T) {
	const n = 32
	rng := mrand.New(mrand.NewSource(5))
	choices := randomChoices(rng, n)
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	tap := &tapConn{Conn: a}
	errc := make(chan error, 1)
	go func() { errc <- BaseSend(tap, rand.Reader, make([][2]Message, n)) }()
	got, err := BaseReceive(b, rand.Reader, choices)
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(tap.sent) != 2 || len(tap.sent[0]) != elementLen || len(tap.sent[1]) != 32*n {
		t.Fatalf("sender sent %d messages, want A (%d B) then %d B of ciphertexts", len(tap.sent), elementLen, 32*n)
	}
	keys := tap.sent[1]
	seen := make(map[Message]bool)
	for i, c := range choices {
		var k [2]Message
		copy(k[0][:], keys[32*i:])
		copy(k[1][:], keys[32*i+16:])
		if got[i] != (Message{}) {
			t.Fatalf("transfer %d (choice %v): receiver's key is not the sender's k_choice", i, c)
		}
		if k[0] == k[1] {
			t.Fatalf("transfer %d: k0 == k1, the receiver's key opens both messages", i)
		}
		for _, key := range k {
			if seen[key] {
				t.Fatalf("transfer %d: key repeats across transfers", i)
			}
			seen[key] = true
		}
	}
}

// hostileReceiver plays the receiver's side of the wire by hand: it
// reads A, answers with the batch reply builds from it, and returns
// BaseSend's error.
func hostileReceiver(t *testing.T, n int, reply func(a []byte) []byte) error {
	t.Helper()
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- BaseSend(a, rand.Reader, make([][2]Message, n)) }()
	aEnc, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SendMsg(reply(aEnc)); err != nil {
		t.Fatal(err)
	}
	go b.RecvMsg() // the ciphertexts, if the sender gets that far
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("BaseSend hung on a hostile B batch")
		return nil
	}
}

func TestBaseSendRejectsHostileBatch(t *testing.T) {
	g := generatorEnc()
	batch := func(first []byte) func([]byte) []byte {
		return func([]byte) []byte { return append(append([]byte{}, first...), g...) }
	}
	offCurve := append([]byte{2}, nonResidueX(t).FillBytes(make([]byte, 32))...)
	cases := map[string]func(a []byte) []byte{
		"short batch":       func([]byte) []byte { return g },
		"long batch":        func([]byte) []byte { return bytes.Repeat(g, 3) },
		"identity encoding": batch(make([]byte, elementLen)),
		"off-curve point":   batch(offCurve),
		// B = A: the sender's k1 would be the hash of the identity. It
		// must come back as an error (or a key), never as a panic from
		// the curve arithmetic.
		"B equals A": func(a []byte) []byte { return append(append([]byte{}, a...), g...) },
	}
	for name, reply := range cases {
		if err := hostileReceiver(t, 2, reply); err == nil {
			t.Errorf("%s: BaseSend succeeded", name)
		}
	}
	// Control: the same harness with an honest-looking batch succeeds,
	// so the rejections above are about the points, not the harness.
	if err := hostileReceiver(t, 2, func([]byte) []byte { return bytes.Repeat(g, 2) }); err != nil {
		t.Fatalf("well-formed batch rejected: %v", err)
	}
}

func TestBaseReceiveRejectsHostileA(t *testing.T) {
	offCurve := append([]byte{3}, nonResidueX(t).FillBytes(make([]byte, 32))...)
	cases := map[string][]byte{
		"short":             generatorEnc()[:elementLen-1],
		"identity encoding": make([]byte, elementLen),
		"off-curve point":   offCurve,
		"uncompressed":      elliptic.Marshal(curve, curve.Params().Gx, curve.Params().Gy),
	}
	for name, aEnc := range cases {
		a, b := wire.Pipe()
		if err := a.SendMsg(aEnc); err != nil {
			t.Fatal(err)
		}
		if _, err := BaseReceive(b, rand.Reader, make([]bool, 4)); err == nil {
			t.Errorf("%s: BaseReceive accepted A", name)
		}
		a.Close()
		b.Close()
	}
}

// extSession builds a connected extension sender/receiver pair.
func extSession(t *testing.T) (*ExtensionSender, *ExtensionReceiver, func()) {
	t.Helper()
	a, b := wire.Pipe()
	var es *ExtensionSender
	var esErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		es, esErr = NewExtensionSender(a, rand.Reader)
	}()
	er, err := NewExtensionReceiver(b, rand.Reader)
	wg.Wait()
	if esErr != nil {
		t.Fatal(esErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return es, er, func() { a.Close(); b.Close() }
}

func TestExtensionSingleBatch(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	rng := mrand.New(mrand.NewSource(2))
	const m = 300 // deliberately not a multiple of 8
	pairs := randomPairs(t, m)
	choices := randomChoices(rng, m)
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = kernelSender{es}.Send(pairs)
	}()
	got, err := kernelReceiver{er}.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Fatalf("extension transfer %d (choice %v) wrong", i, c)
		}
	}
}

func TestExtensionMultipleBatches(t *testing.T) {
	// Sequential GC performs OT every round (§3); the session must
	// stay consistent across batches of different sizes.
	es, er, closeFn := extSession(t)
	defer closeFn()
	rng := mrand.New(mrand.NewSource(3))
	for _, m := range []int{1, 7, 64, 129} {
		pairs := randomPairs(t, m)
		choices := randomChoices(rng, m)
		var sendErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendErr = kernelSender{es}.Send(pairs)
		}()
		got, err := kernelReceiver{er}.Receive(choices)
		wg.Wait()
		if sendErr != nil {
			t.Fatal(sendErr)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range choices {
			want := pairs[i][0]
			if c {
				want = pairs[i][1]
			}
			if got[i] != want {
				t.Fatalf("batch size %d transfer %d wrong", m, i)
			}
		}
	}
}

func TestExtensionEmptyBatch(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	if err := (kernelSender{es}).Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := kernelReceiver{er}.Receive(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty batch returned messages")
	}
}

func TestExtensionLabelTransfer(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	const m = 32
	pairs := randomLabelPairs(t, m)
	choices := randomChoices(mrand.New(mrand.NewSource(4)), m)
	got := labelRound(t, es, er, pairs, choices)
	for i, c := range choices {
		if got[i] != pairs[i].Get(c) {
			t.Fatalf("label transfer %d wrong", i)
		}
	}
}

func TestExtensionCommunicationIsSymmetricAfterBase(t *testing.T) {
	// After the base phase, per-transfer communication must be
	// O(κ + 2·16) bytes, with no public-key operations: check that two
	// same-size batches move identical byte counts.
	a, b := wire.Pipe()
	ca, cb := wire.NewCounting(a), wire.NewCounting(b)
	var es *ExtensionSender
	var esErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		es, esErr = NewExtensionSender(ca, rand.Reader)
	}()
	er, err := NewExtensionReceiver(cb, rand.Reader)
	wg.Wait()
	if esErr != nil || err != nil {
		t.Fatal(esErr, err)
	}
	defer a.Close()
	defer b.Close()

	measure := func() int64 {
		s0, r0, _, _ := ca.Totals()
		pairs := randomPairs(t, 64)
		choices := make([]bool, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			esErr = kernelSender{es}.Send(pairs)
		}()
		if _, err := (kernelReceiver{er}).Receive(choices); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if esErr != nil {
			t.Fatal(esErr)
		}
		s1, r1, _, _ := ca.Totals()
		return (s1 - s0) + (r1 - r0)
	}
	first := measure()
	second := measure()
	if first != second {
		t.Fatalf("batch traffic varies: %d vs %d bytes", first, second)
	}
	if first <= 0 || first > 1<<20 {
		t.Fatalf("implausible batch traffic %d bytes", first)
	}
}

// TestRowHashDomainSeparation: the row hash the kernel calls separates
// one row at two indices, and two rows at one index.
func TestRowHashDomainSeparation(t *testing.T) {
	var zeros, other, h, g [8]label.Label
	other[0][5] = 9
	gchash.HashRows(&zeros, 1, &h) // h[k] = H(1+k, 0)
	gchash.HashRows(&other, 1, &g) // g[0] = H(1, other[0])
	if h[0] == h[1] {
		t.Fatal("row hash ignores index")
	}
	if h[0] == g[0] {
		t.Fatal("row hash ignores row")
	}
}

// BenchmarkBaseOT is the layer's own number: one κ-pair base-OT batch,
// both sides, over an in-memory pipe. ns/op is the wall clock of the
// pair (the sides overlap); allocs/op and B/op are their sum.
func BenchmarkBaseOT(b *testing.B) {
	pairs := make([][2]Message, Kappa)
	choices := make([]bool, Kappa)
	for i := range choices {
		choices[i] = i%3 == 0
	}
	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	errc := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() { errc <- BaseSend(ca, rand.Reader, pairs) }()
		if _, err := BaseReceive(cb, rand.Reader, choices); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}
}

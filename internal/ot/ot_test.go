package ot

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"sync"
	"testing"

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

func TestGroupElementValidation(t *testing.T) {
	if _, err := unmarshalElement(make([]byte, 3)); err == nil {
		t.Fatal("short element accepted")
	}
	zero := make([]byte, elementLen)
	if _, err := unmarshalElement(zero); err == nil {
		t.Fatal("zero element accepted")
	}
	one := make([]byte, elementLen)
	one[elementLen-1] = 1
	if _, err := unmarshalElement(one); err == nil {
		t.Fatal("identity element accepted")
	}
	pBytes := marshalElement(modpGroup.p)
	if _, err := unmarshalElement(pBytes); err == nil {
		t.Fatal("p itself accepted")
	}
	g := marshalElement(modpGroup.g)
	if _, err := unmarshalElement(g); err != nil {
		t.Fatalf("generator rejected: %v", err)
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
		sendErr = es.Send(pairs)
	}()
	got, err := er.Receive(choices)
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
			sendErr = es.Send(pairs)
		}()
		got, err := er.Receive(choices)
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
	if err := es.Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := er.Receive(nil)
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
	d := label.MustNewDelta()
	const m = 32
	pairs := make([]label.Pair, m)
	for i := range pairs {
		pairs[i] = label.NewPair(label.MustRandom(), d)
	}
	rng := mrand.New(mrand.NewSource(4))
	choices := randomChoices(rng, m)
	var sendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = SendLabels(es, pairs)
	}()
	got, err := ReceiveLabels(er, choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
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
			esErr = es.Send(pairs)
		}()
		if _, err := er.Receive(choices); err != nil {
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

func TestPRGStreamsDiverge(t *testing.T) {
	var s1, s2 Message
	s2[0] = 1
	p1, err := prgStream(s1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := prgStream(s2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(nextPad(p1, 32), nextPad(p2, 32)) {
		t.Fatal("different seeds produced identical pads")
	}
}

func TestRowHashDomainSeparation(t *testing.T) {
	var row Message
	if rowHash(1, row) == rowHash(2, row) {
		t.Fatal("row hash ignores index")
	}
	var row2 Message
	row2[5] = 9
	if rowHash(1, row) == rowHash(1, row2) {
		t.Fatal("row hash ignores row")
	}
}

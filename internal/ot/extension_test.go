package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"maxelerator/internal/label"
	"maxelerator/internal/wire"
)

// batchSender and batchReceiver are what the kernel and the reference
// endpoints have in common.
type batchSender interface {
	Send(pairs [][2]Message) error
}

type batchReceiver interface {
	Receive(choices []bool) ([]Message, error)
}

// seededSession sets up a session over a and b whose every random draw
// comes from seeded readers, and swaps in the reference implementation
// on the sides asked for.
func seededSession(t testing.TB, a, b wire.Conn, refSend, refRecv bool) (batchSender, batchReceiver) {
	t.Helper()
	var es *ExtensionSender
	errc := make(chan error, 1)
	go func() {
		var err error
		es, err = NewExtensionSender(a, mrand.New(mrand.NewSource(11)))
		errc <- err
	}()
	er, err := NewExtensionReceiver(b, mrand.New(mrand.NewSource(12)))
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	var snd batchSender = es
	if refSend {
		snd = newRefSender(es)
	}
	var rcv batchReceiver = er
	if refRecv {
		rcv = newRefReceiver(er)
	}
	return snd, rcv
}

// TestExtensionTranscriptMatchesReference is the kernel's differential
// oracle: one session of interleaved batch sizes must put the same
// bytes on the wire and deliver the same messages whichever of the two
// implementations plays either side. The mixed pairings are a v4 peer
// talking to the kernel. A kernel receiver whose requests run 1, 2 or
// 16 batches ahead of its finishes must too: the u matrices do not
// depend on when the ciphertexts arrive.
func TestExtensionTranscriptMatchesReference(t *testing.T) {
	// 9001 is above RetainLabels and ends the sender's last chunk mid-byte.
	sizes := []int{1, 3, 7, 8, 9, 64, 129, 1000, 4096, 8, 9001, 8}
	type transcript struct {
		sender, receiver [][]byte
		got              [][]Message
	}
	// run plays the session; ahead > 0 runs the kernel receiver's
	// requests that many batches ahead of its finishes.
	run := func(refSend, refRecv bool, ahead int) transcript {
		a, b := wire.Pipe()
		defer a.Close()
		defer b.Close()
		ta, tb := &tapConn{Conn: a}, &tapConn{Conn: b}
		snd, rcv := seededSession(t, ta, tb, refSend, refRecv)
		rng := mrand.New(mrand.NewSource(13))
		pairs := make([][][2]Message, len(sizes))
		choices := make([][]bool, len(sizes))
		for k, m := range sizes {
			pairs[k] = make([][2]Message, m)
			for i := range pairs[k] {
				rng.Read(pairs[k][i][0][:])
				rng.Read(pairs[k][i][1][:])
			}
			choices[k] = randomChoices(rng, m)
		}
		errc := make(chan error, 1)
		go func() {
			for _, p := range pairs {
				if err := snd.Send(p); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		var tr transcript
		var err error
		if ahead > 0 {
			tr.got, err = receiveAhead(rcv.(*ExtensionReceiver), choices, ahead)
		} else {
			for _, c := range choices {
				var got []Message
				if got, err = rcv.Receive(c); err != nil {
					break
				}
				tr.got = append(tr.got, got)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		for k, got := range tr.got {
			for j, c := range choices[k] {
				if got[j] != pairs[k][j][b2i(c)] {
					t.Fatalf("ref sender %v, ref receiver %v, ahead %d: batch of %d, transfer %d wrong", refSend, refRecv, ahead, sizes[k], j)
				}
			}
		}
		tr.sender, tr.receiver = ta.sent, tb.sent
		return tr
	}
	want := run(true, true, 0)
	// Set-up is two frames from the receiver (the base-OT sender) and
	// one from the sender; then one u matrix and one ciphertext frame
	// per batch.
	if len(want.receiver) != 2+len(sizes) || len(want.sender) != 1+len(sizes) {
		t.Fatalf("reference session sent %d + %d frames", len(want.sender), len(want.receiver))
	}
	type pairing struct {
		refSend, refRecv bool
		ahead            int
	}
	pairings := []pairing{{false, false, 0}, {false, true, 0}, {true, false, 0}}
	for _, ahead := range []int{1, 2, 16} {
		pairings = append(pairings, pairing{false, false, ahead}, pairing{true, false, ahead})
	}
	for _, p := range pairings {
		got := run(p.refSend, p.refRecv, p.ahead)
		name := fmt.Sprintf("ref sender %v, ref receiver %v, ahead %d", p.refSend, p.refRecv, p.ahead)
		if !reflect.DeepEqual(got.receiver, want.receiver) {
			t.Errorf("%s: the receiver's frames (u matrices) differ from the reference session's", name)
		}
		if !reflect.DeepEqual(got.sender, want.sender) {
			t.Errorf("%s: the sender's frames (ciphertexts) differ from the reference session's", name)
		}
		if !reflect.DeepEqual(got.got, want.got) {
			t.Errorf("%s: delivered messages differ from the reference session's", name)
		}
	}
}

// frames cuts buf at ends into the frames it holds.
func frames(buf []byte, ends []int) [][]byte {
	var msgs [][]byte
	start := 0
	for _, end := range ends {
		msgs = append(msgs, buf[start:end])
		start = end
	}
	return msgs
}

// receiveAhead receives one batch per choices entry on the calling
// goroutine, its requests running ahead batches in front of its
// finishes. The u frames of the requests issued together go out in one
// SendMsgs.
func receiveAhead(er *ExtensionReceiver, choices [][]bool, ahead int) ([][]Message, error) {
	var pending []Pending[Message]
	var got [][]Message
	var buf []byte
	for next := 0; len(got) < len(choices); {
		var ends []int
		for buf = buf[:0]; next < len(choices) && next < len(got)+ahead; next++ {
			var p Pending[Message]
			buf, p = request[Message](er, buf, choices[next])
			ends = append(ends, len(buf))
			pending = append(pending, p)
		}
		if err := er.conn.SendMsgs(frames(buf, ends)); err != nil {
			return nil, err
		}
		msgs, err := finish(er, pending[0])
		if err != nil {
			return nil, err
		}
		pending = pending[1:]
		got = append(got, msgs)
	}
	return got, nil
}

// TestExtensionSplitReceiverTwoGoroutines is the receiver's
// concurrency contract, under -race in CI: one goroutine issues every
// request in order, up to a window ahead; another finishes them in the
// same order; every batch delivers the chosen labels. The sizes include
// one above RetainLabels, whose scratch the requester drops while
// earlier batches are still being finished.
func TestExtensionSplitReceiverTwoGoroutines(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	rng := mrand.New(mrand.NewSource(9))
	sizes := []int{8, 8, 1, 9, 300, 8, RetainLabels + 1, 8, 16, 8}
	for len(sizes) < 64 {
		sizes = append(sizes, 8)
	}
	pairs := make([][]label.Pair, len(sizes))
	choices := make([][]bool, len(sizes))
	for k, m := range sizes {
		pairs[k] = randomLabelPairs(t, m)
		choices[k] = randomChoices(rng, m)
	}
	sendErr := make(chan error, 1)
	go func() {
		for _, p := range pairs {
			if err := SendLabels(es, p); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	pending := make(chan Pending[label.Label], 4)
	var reqErr error
	go func() {
		defer close(pending)
		var u []byte
		for _, c := range choices {
			var p Pending[label.Label]
			u, p = RequestLabels(er, u[:0], c)
			pending <- p
			if reqErr = er.conn.SendMsg(u); reqErr != nil {
				return
			}
		}
	}()
	for k := range sizes {
		p, ok := <-pending
		if !ok {
			t.Fatalf("requester stopped before batch %d: %v", k, reqErr)
		}
		got, err := FinishLabels(er, p)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range choices[k] {
			if got[j] != pairs[k][j].Get(c) {
				t.Fatalf("batch %d of %d labels: label %d wrong", k, sizes[k], j)
			}
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestTransposeMatchesBitLoop(t *testing.T) {
	check := func(seed int64, size uint16) bool {
		m := int(size)%2000 + 1 // mostly not a multiple of 8
		stride := (m + 7) / 8
		rng := mrand.New(mrand.NewSource(seed))
		cols := make([]byte, Kappa*stride)
		rng.Read(cols)
		// The padding bits of the last byte belong to no row; flipping
		// them must change no row below m.
		flipped := bytes.Clone(cols)
		if pad := byte(0xff) << (uint(m) % 8); m%8 != 0 {
			for i := 0; i < Kappa; i++ {
				flipped[i*stride+stride-1] ^= pad
			}
		}
		var rows, rowsFlipped [8]Message
		for j := 0; j < m; j++ {
			if j%8 == 0 {
				transpose(cols, stride, j/8, &rows)
				transpose(flipped, stride, j/8, &rowsFlipped)
			}
			var want Message
			for i := 0; i < Kappa; i++ {
				if cols[i*stride+j/8]>>(uint(j)%8)&1 == 1 {
					want[i/8] |= 1 << (uint(i) % 8)
				}
			}
			if rows[j%8] != want || rowsFlipped[j%8] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestColPRGReadSplits: however a column stream is read — single bytes,
// runs that straddle the lookahead, runs that bypass it — the bytes are
// those of one read of crypto/cipher's AES-CTR stream from a zero IV.
func TestColPRGReadSplits(t *testing.T) {
	const total = 8 * lookahead
	seed := Message{1, 2, 3}
	blk, err := aes.NewCipher(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, total)
	cipher.NewCTR(blk, make([]byte, aes.BlockSize)).XORKeyStream(want, want)

	check := func(splitSeed int64) bool {
		rng := mrand.New(mrand.NewSource(splitSeed))
		var p colPRG
		if err := p.init(seed); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, total)
		for len(got) < total {
			n := 1
			switch rng.Intn(3) {
			case 1:
				n = 1 + rng.Intn(lookahead)
			case 2:
				n = lookahead + rng.Intn(2*lookahead)
			}
			n = min(n, total-len(got))
			// Stale bytes in the destination must not reach the output.
			got = append(got, bytes.Repeat([]byte{0xa5}, n)...)
			p.read(got[len(got)-n:])
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// labelRound runs one label batch, the sender on its own goroutine,
// and fails the test on any error.
func labelRound(t testing.TB, es *ExtensionSender, er *ExtensionReceiver, pairs []label.Pair, choices []bool) []label.Label {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- SendLabels(es, pairs) }()
	got, err := ReceiveLabels(er, choices)
	if serr := <-errc; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func randomLabelPairs(t testing.TB, n int) []label.Pair {
	t.Helper()
	d := label.MustNewDelta()
	pairs := make([]label.Pair, n)
	for i := range pairs {
		pairs[i] = label.NewPair(label.MustRandom(), d)
	}
	return pairs
}

// TestExtensionSteadyStateAllocs pins the kernel's allocation count.
// Over wire.Pipe a steady-state batch allocates three objects whatever
// its size — the pipe's copies of the u frame and of the ciphertext
// frame (a stream conn allocates the same two on the receiving side
// instead) and the returned labels — and labelRound three of its own
// (channel, closure, goroutine): six measured, and a budget of eight so
// that a runtime that reuses one fewer goroutine does not fail it.
func TestExtensionSteadyStateAllocs(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	rng := mrand.New(mrand.NewSource(6))
	perBatch := func(m int) float64 {
		pairs := randomLabelPairs(t, m)
		choices := randomChoices(rng, m)
		labelRound(t, es, er, pairs, choices) // size the scratch
		return testing.AllocsPerRun(20, func() { labelRound(t, es, er, pairs, choices) })
	}
	const budget = 8
	small, mid, large := perBatch(8), perBatch(64), perBatch(4096)
	t.Logf("objects per batch: %.0f (8 labels), %.0f (64), %.0f (4096)", small, mid, large)
	if small > budget {
		t.Errorf("an 8-label round allocates %.0f objects, budget %d", small, budget)
	}
	if large > mid {
		t.Errorf("a 4096-label batch allocates %.0f objects, a 64-label one %.0f", large, mid)
	}
}

// TestExtensionScratchCap: a session that once ran a large batch does
// not keep its buffers.
func TestExtensionScratchCap(t *testing.T) {
	es, er, closeFn := extSession(t)
	defer closeFn()
	rng := mrand.New(mrand.NewSource(7))
	for _, m := range []int{65536, 8} {
		pairs := randomLabelPairs(t, m)
		choices := randomChoices(rng, m)
		got := labelRound(t, es, er, pairs, choices)
		for j, c := range choices {
			if got[j] != pairs[j].Get(c) {
				t.Fatalf("batch of %d: label %d wrong", m, j)
			}
		}
	}
	const limit = 32*RetainLabels + Kappa*chunkBytes
	if held := cap(es.q) + cap(es.out); held > limit {
		t.Errorf("sender holds %d bytes of scratch after a small batch, cap %d", held, limit)
	}
	if held := cap(er.r) + cap(er.t) + cap(er.u); held > limit {
		t.Errorf("receiver holds %d bytes of scratch after a small batch, cap %d", held, limit)
	}
}

var benchSink []Message

// benchExtension moves rounds batches of batch messages per iteration
// through one session over an in-memory pipe. ns/op is the wall clock
// of the pair (the sides overlap); allocs/op and B/op are their sum.
func benchExtension(b *testing.B, reference bool, batch, rounds int) {
	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	snd, rcv := seededSession(b, ca, cb, reference, reference)
	pairs := make([][2]Message, batch)
	for i := range pairs {
		rand.Read(pairs[i][0][:])
		rand.Read(pairs[i][1][:])
	}
	choices := randomChoices(mrand.New(mrand.NewSource(8)), batch)
	errc := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N*rounds; i++ {
			if err := snd.Send(pairs); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < b.N*rounds; i++ {
		var err error
		if benchSink, err = rcv.Receive(choices); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*batch), "ns/label")
}

// BenchmarkExtension is §3's OT cadence tradeoff at this layer: the
// same 4 096 labels as 512 per-round batches of 8 (chain_perround's
// request) and as one batch (warm_inline's), through the kernel and
// through the reference implementation it replaced.
func BenchmarkExtension(b *testing.B) {
	for _, impl := range []string{"kernel", "reference"} {
		for _, c := range []struct{ batch, rounds int }{{8, 512}, {4096, 1}} {
			b.Run(fmt.Sprintf("%s/batch=%d/rounds=%d", impl, c.batch, c.rounds), func(b *testing.B) {
				benchExtension(b, impl == "reference", c.batch, c.rounds)
			})
		}
	}
}

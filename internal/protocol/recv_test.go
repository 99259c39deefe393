package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/wire"
)

// loopReader reads b over and over: whole frames, so every read leaves
// the stream on a frame boundary every len(b) bytes.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

func (*loopReader) Write(p []byte) (int, error) { return len(p), nil }

// warmRound is one client slot's work on a stream of round-0 material
// frames of the signed b-bit MAC: the stream conn the frames arrive
// on, the slot's evaluator and view, and the round's active evaluator
// labels.
type warmRound struct {
	conn   wire.Conn
	re     *rowEvaluator
	active []label.Label
	want   int64
	ands   int // the MAC's AND gates
}

// newWarmRound frames one round 0 of x·y on the MAC of width b, as the
// serve path frames it, and repeats it on a stream conn.
func newWarmRound(t testing.TB, b int) *warmRound {
	c, err := loweredMAC(circuit.MACConfig{Width: b, AccWidth: 2 * b, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gc.NewRoundPool(gc.DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	req, err := gc.NewRequest(gc.DefaultParams(), c, 1, [16]byte{51})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	x, y := int64(-3), int64(5)
	w := &warmRound{want: x * y, ands: prog.NAND}
	var framed []byte
	if err := req.PooledLane(pool).GarbleRow(0, []int64{x}, func(_ int, gb *gc.Garbled) error {
		f := materialFrame(gb)
		framed = binary.BigEndian.AppendUint32(nil, uint32(len(f)))
		framed = append(framed, f...)
		for i, v := range circuit.Int64ToBits(y, b) {
			w.active = append(w.active, gb.EvalPairs[i].Get(v))
		}
		pool.Put(gb)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ev, err := gc.NewEvaluator(gc.DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	w.re = &rowEvaluator{ev: ev}
	w.conn = wire.NewStreamConn(&loopReader{b: framed})
	return w
}

// round receives, parses, evaluates and recycles one round, as the
// client's reader does, and checks the decoded product.
func (w *warmRound) round(t testing.TB) {
	frame, err := recvRound(w.conn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chainRound{frame: frame, active: w.active}.eval(w.re, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.BitsToInt64(res.Outputs); got != w.want {
		t.Fatalf("decoded %d, want %d", got, w.want)
	}
}

// TestClientRoundAllocatesNothing: once warm, a client slot receives a
// round's frame into a recycled body, parses it into its view in place,
// evaluates it and recycles it without a heap object — at b=8 and at
// b=16.
func TestClientRoundAllocatesNothing(t *testing.T) {
	for _, b := range []int{8, 16} {
		w := newWarmRound(t, b)
		if n := testing.AllocsPerRun(200, func() { w.round(t) }); n != 0 {
			t.Errorf("b=%d: a warm round allocates %.2f objects", b, n)
		}
	}
}

// BenchmarkRecvEvalRound prices a client slot's whole round — receive
// into a recycled body, parse in place, evaluate, recycle — per AND,
// at b=8 and b=16.
func BenchmarkRecvEvalRound(b *testing.B) {
	for _, width := range []int{8, 16} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			w := newWarmRound(b, width)
			for range 64 { // bodies and the view grown
				w.round(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				w.round(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.ands), "ns/AND")
		})
	}
}

// TestLoweredMACMemo: Dials of one shape share one lowered MAC; the
// memo keeps the last macMemoSize shapes and no more, whatever shapes
// are asked for; and goroutines asking for different shapes at once
// each get their own shape's circuit (run under -race in CI).
func TestLoweredMACMemo(t *testing.T) {
	cfg := func(w int) circuit.MACConfig { return circuit.MACConfig{Width: w, AccWidth: 2*w + 1, Signed: w%2 == 0} }
	first, err := loweredMAC(cfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := loweredMAC(cfg(3)); again != first {
		t.Fatal("a second Dial of one shape rebuilt its MAC")
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				w := 2 + (g+i)%6 // six shapes through a four-entry memo
				c, err := loweredMAC(cfg(w))
				if err != nil || c.NGarbler != w || c.NEvaluator != w || c.NState != 2*w+1 {
					t.Errorf("width %d: got a circuit of %d/%d/%d inputs (%v)", w, c.NGarbler, c.NEvaluator, c.NState, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	macMemo.Lock()
	defer macMemo.Unlock()
	shapes := map[circuit.MACConfig]bool{}
	for i, c := range macMemo.ckts {
		if c != nil {
			shapes[macMemo.cfgs[i]] = true
		}
	}
	if len(shapes) > macMemoSize || len(macMemo.ckts) != macMemoSize {
		t.Fatalf("the memo holds %d shapes in %d entries, want at most %d", len(shapes), len(macMemo.ckts), macMemoSize)
	}
}

package protocol

// Wire-transcript property tests for the streaming serve pipeline: the
// pipelined hot path must emit exactly the bytes the fully buffered
// path did, whatever the pipeline depth, lane count, or serving path
// (inline, precompute cold miss, precompute hit). A request's rows
// share one seed and one Δ, and a row's labels and tweaks follow from
// its index, so the lane count does not move a byte either.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// poolState selects the precompute configuration of one transcript run.
type poolState int

const (
	poolNone poolState = iota // no engine attached
	poolCold                  // engine attached, never filled: every Take misses
	poolHot                   // engine prefilled deterministically: every Take hits
)

// streamTranscript runs the 3×3 fixture request at the given knobs and
// returns the server's sent frames and the client's outputs.
func streamTranscript(t *testing.T, mode OTMode, workers, depth int, pool poolState) ([][]byte, []int64) {
	t.Helper()
	A := [][]int64{{1, -2, 3}, {4, 5, -6}, {-7, 8, 9}}
	y := []int64{7, -8, 9}
	return streamTranscriptOf(t, A, y, mode, workers, depth, pool)
}

// streamTranscriptOf runs one deterministic request (server DRBG {11},
// client DRBG {22}, engine seeds {33}) of A against y at the given
// knobs and returns the server's sent frames and the client's outputs.
func streamTranscriptOf(t *testing.T, A [][]int64, y []int64, mode OTMode, workers, depth int, pool poolState) ([][]byte, []int64) {
	t.Helper()
	srvFrames, _, out := streamTranscriptWith(t, A, y, mode, workers, depth, pool, clientRun)
	return srvFrames, out
}

// streamTranscriptWith is streamTranscriptOf with the client played by
// run; it also returns the frames the client sent.
func streamTranscriptWith(t *testing.T, A [][]int64, y []int64, mode OTMode, workers, depth int, pool poolState,
	run func(*Client, wire.Conn, []int64) ([]int64, error)) (srvFrames, cliFrames [][]byte, out []int64) {
	t.Helper()
	oldDepth := pipeDepth
	pipeDepth = depth
	defer func() { pipeDepth = oldDepth }()

	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	drbg, err := label.NewDRBG([16]byte{11})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rand = drbg
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(obs.New(2))
	if pool != poolNone {
		seeds, err := label.NewDRBG([16]byte{33})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := precompute.New(precompute.Config{
			Sim:      maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: seeds},
			PoolSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Stop)
		srv.WithPrecompute(eng)
		if pool == poolHot {
			shape := precompute.Shape{Rows: len(A), Cols: len(A[0]), Width: 8, Signed: true, Mode: "matvec", OT: mode.String()}
			if err := eng.Prefill(shape, 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	rec := &recordingConn{Conn: ca}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = serveOne(srv, rec, SessionConfig{GarbleWorkers: workers}, Request{Matrix: A, OT: mode})
	}()
	cdrbg, err := label.NewDRBG([16]byte{22})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(cdrbg)
	if err != nil {
		t.Fatal(err)
	}
	cliRec := &recordingConn{Conn: cb}
	out, err = run(cli, cliRec, y)
	if err != nil {
		t.Fatalf("client (mode=%s workers=%d depth=%d pool=%d): %v", mode, workers, depth, pool, err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server (mode=%s workers=%d depth=%d pool=%d): %v", mode, workers, depth, pool, srvErr)
	}
	return rec.frames(), cliRec.frames(), out
}

func wantResults(t *testing.T, out []int64) {
	t.Helper()
	want := []int64{1*7 + -2*-8 + 3*9, 4*7 + 5*-8 + -6*9, -7*7 + 8*-8 + 9*9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("results %v, want %v", out, want)
		}
	}
}

func sameFrames(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frame count %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs (%d vs %d bytes)", label, i, len(got[i]), len(want[i]))
		}
	}
}

// TestStreamTranscriptInvariantUnderDepth: with deterministic
// randomness and serial garbling, the transcript is bit-identical at
// every pipeline depth, on both the engine-less and the cold-miss
// fallback path, in per-round and batched OT modes. This is the PR 5
// bit-identity guarantee carried over to the pipelined hot path.
func TestStreamTranscriptInvariantUnderDepth(t *testing.T) {
	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			base, out := streamTranscript(t, mode, 0, 2, poolNone)
			wantResults(t, out)
			// depth 1 forces maximal producer/consumer lockstep, depth 8
			// exceeds the row count entirely; the cold pool rides along on
			// the depth extremes so the miss fallback is covered too.
			for _, run := range []struct {
				depth int
				pool  poolState
			}{{1, poolNone}, {8, poolNone}, {1, poolCold}, {8, poolCold}} {
				got, out := streamTranscript(t, mode, 0, run.depth, run.pool)
				wantResults(t, out)
				sameFrames(t, fmt.Sprintf("depth=%d pool=%d", run.depth, run.pool), got, base)
			}
		})
	}
}

// chainFixture is a one-row, 64-column per-round request: the shape
// whose rounds stream individually through the serve pipeline.
func chainFixture() ([][]int64, []int64) {
	row := make([]int64, 64)
	y := make([]int64, 64)
	for j := range row {
		row[j] = int64(j*37%256 - 128)
		y[j] = int64((j*53+7)%256 - 128)
	}
	return [][]int64{row}, y
}

// chainTranscriptDigest is the SHA-256 of the chain fixture's server
// frames (each behind its 4-byte big-endian length), recorded while the
// serve pipeline still moved whole rows. Streaming rounds must not move
// a byte. It was re-pinned three times: for protocol v5, when the hello
// carried the new version and the folded b=8 MAC garbled 178 tables per
// round instead of 204; for v6, when the radix-4 Booth MAC garbles 120;
// and when a request became one gc.Request, whose labels and Δ are AES
// under a 16-byte seed the server DRBG supplies, in place of labels read
// from that DRBG one by one (frame lengths and the version unchanged).
// It was re-pinned a fourth time for v7, when every row of a request
// began sharing the evaluator's input labels: round j's come from the
// column domain AES_k(2⁶⁴−2 ‖ j·8 + n), so every label and table of
// the one row moves and the hello carries version 7. This request has
// one row, so frame lengths are unchanged.
const chainTranscriptDigest = "b39f4ef0a2c236f7255199d160cc92707e4571f75555b963845064642a528a5b"

func framesDigest(frames [][]byte) string {
	h := sha256.New()
	var n [4]byte
	for _, f := range frames {
		binary.BigEndian.PutUint32(n[:], uint32(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamTranscriptChainDigest pins the 1×64 per-round transcript
// at every pipeline depth and on the cold-miss fallback.
func TestStreamTranscriptChainDigest(t *testing.T) {
	A, y := chainFixture()
	var want int64
	for j := range y {
		want += A[0][j] * y[j]
	}
	for _, run := range []struct {
		depth int
		pool  poolState
	}{{1, poolNone}, {2, poolNone}, {8, poolNone}, {2, poolCold}} {
		got, out := streamTranscriptOf(t, A, y, OTPerRound, 0, run.depth, run.pool)
		if len(out) != 1 || out[0] != want {
			t.Fatalf("depth=%d pool=%d: result %v, want [%d]", run.depth, run.pool, out, want)
		}
		if d := framesDigest(got); d != chainTranscriptDigest {
			t.Fatalf("depth=%d pool=%d: transcript digest %s, want %s", run.depth, run.pool, d, chainTranscriptDigest)
		}
	}
}

// materialWatchConn closes first once it has carried a material frame.
type materialWatchConn struct {
	wire.Conn
	once  sync.Once
	first chan struct{}
}

func (c *materialWatchConn) SendMsg(m []byte) error {
	material := tagOf(m) == tagMaterial
	err := c.Conn.SendMsg(m)
	if err == nil && material {
		c.once.Do(func() { close(c.first) })
	}
	return err
}

func (c *materialWatchConn) SendMsgs(ms [][]byte) error { return sendEach(c, ms) }

// TestFirstFrameLeavesEarly: every lane queues each round as soon as
// it is garbled, and the session goroutine frames it from the queue
// straight onto the wire. The round hook holds the garbling of row 0's
// last round until the conn has carried round 0's material frame; a
// pipeline that moved whole rows would only send it after that round,
// so the bounded wait would expire and the test fail. The cases are a
// one-lane 1×512 request and a two-lane 2×256 one, whose second row
// lane 1 garbles meanwhile. Buffering stays within two rows of tables,
// and the trace records the lanes' back-pressure wait.
func TestFirstFrameLeavesEarly(t *testing.T) {
	for _, tc := range []struct{ rows, cols, workers int }{
		{rows: 1, cols: 512, workers: 4},
		{rows: 2, cols: 256, workers: 2},
	} {
		t.Run(fmt.Sprintf("%dx%d/workers=%d", tc.rows, tc.cols, tc.workers), func(t *testing.T) {
			A := make([][]int64, tc.rows)
			y := make([]int64, tc.cols)
			want := make([]int64, tc.rows)
			for j := range y {
				y[j] = int64(j%9 - 4)
			}
			for i := range A {
				A[i] = make([]int64, tc.cols)
				for j := range A[i] {
					A[i][j] = int64((j+5*i)%15 - 7)
					want[i] += A[i][j] * y[j]
				}
			}
			o := obs.New(2)
			srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
			if err != nil {
				t.Fatal(err)
			}
			srv.WithObs(o)
			cli, err := NewClient(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			a, b := wire.Pipe()
			defer a.Close()
			defer b.Close()
			conn := &materialWatchConn{Conn: a, first: make(chan struct{})}

			var early atomic.Bool
			garbleRoundTestHook = func(row, round int) {
				if row != 0 || round != tc.cols-2 { // the hook runs after round r, before round r+1
					return
				}
				select {
				case <-conn.first:
					early.Store(true)
				case <-time.After(5 * time.Second):
				}
			}
			defer func() { garbleRoundTestHook = nil }()

			var wg sync.WaitGroup
			var resp *Response
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, srvErr = serveOne(srv, conn, SessionConfig{GarbleWorkers: tc.workers}, Request{Matrix: A})
			}()
			out, err := clientRun(cli, b, y)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if srvErr != nil {
				t.Fatal(srvErr)
			}
			if !slices.Equal(out, want) {
				t.Fatalf("result %v, want %v", out, want)
			}
			if !early.Load() {
				t.Fatalf("round 0's material frame had not left when round %d of row 0 was about to be garbled", tc.cols-1)
			}
			rowBytes := int64(resp.Stats.TableBytes) / int64(tc.rows)
			if peak := o.Metrics().Gauge("bytes_buffered_peak", "").Value(); peak <= 0 || peak > 2*rowBytes {
				t.Fatalf("bytes_buffered_peak = %d, want within (0, %d] (two rows of tables)", peak, 2*rowBytes)
			}
			if attrs := o.Traces().Recent(1)[0].Attrs; attrs["garble_wait_ms"] == "" {
				t.Fatalf("trace attrs %v lack garble_wait_ms", attrs)
			}
		})
	}
}

// TestStreamTranscriptInvariantOnHits: a precompute hit streams the
// pooled material untouched, so its transcript is bit-identical at any
// worker count and depth — the knobs only drive the garbling path the
// hit skips.
func TestStreamTranscriptInvariantOnHits(t *testing.T) {
	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			base, out := streamTranscript(t, mode, 0, 2, poolHot)
			wantResults(t, out)
			for _, run := range []struct{ workers, depth int }{{2, 1}, {5, 4}} {
				got, out := streamTranscript(t, mode, run.workers, run.depth, poolHot)
				wantResults(t, out)
				sameFrames(t, fmt.Sprintf("workers=%d depth=%d", run.workers, run.depth), got, base)
			}
		})
	}
}

// TestStreamTranscriptStructureUnderWorkers: the lanes of a request
// garble under its one Δ, each row on labels and tweaks fixed by its
// index, so the transcript is byte-identical to the one-lane path at
// every lane count, depth, and fallback path. A reordering or framing
// bug in the pipeline, or a lane that drew labels out of its row's
// stream, shows up here.
func TestStreamTranscriptStructureUnderWorkers(t *testing.T) {
	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			base, out := streamTranscript(t, mode, 0, 2, poolNone)
			wantResults(t, out)
			for _, run := range []struct {
				workers, depth int
				pool           poolState
			}{{2, 1, poolNone}, {3, 4, poolNone}, {2, 4, poolCold}} {
				got, out := streamTranscript(t, mode, run.workers, run.depth, run.pool)
				wantResults(t, out)
				sameFrames(t, fmt.Sprintf("workers=%d depth=%d pool=%d", run.workers, run.depth, run.pool), got, base)
			}
		})
	}
}

// TestLaneBufferBound pins the per-lane memory rule: a lane queues at
// most pipeDepth rows ahead of the wire, and the session goroutine
// holds one round while it frames it, so a request buffers at most
// lanes·(pipeDepth rows + one round) of tables whatever its row count.
// The bound holds in batched mode too: its OT waits for no round of
// row 0. A precompute hit garbles nothing and reads 0.
func TestLaneBufferBound(t *testing.T) {
	const rows, cols = 4, 6
	A := make([][]int64, rows)
	y := make([]int64, cols)
	want := make([]int64, rows)
	for j := range y {
		y[j] = int64(j%5 - 2)
	}
	for i := range A {
		A[i] = make([]int64, cols)
		for j := range A[i] {
			A[i][j] = int64((3*j+i)%11 - 5)
			want[i] += A[i][j] * y[j]
		}
	}
	o := obs.New(2)
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	eng, err := precompute.New(precompute.Config{
		Sim:      maxsim.Config{Width: 8, AccWidth: 24, Signed: true},
		PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	srv.WithPrecompute(eng)
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(lanes int, mode OTMode) *Response {
		t.Helper()
		a, b := wire.Pipe()
		defer a.Close()
		defer b.Close()
		var resp *Response
		var srvErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, srvErr = serveOne(srv, a, SessionConfig{GarbleWorkers: lanes}, Request{Matrix: A, OT: mode})
		}()
		out, err := clientRun(cli, b, y)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if srvErr != nil {
			t.Fatal(srvErr)
		}
		if !slices.Equal(out, want) {
			t.Fatalf("result %v, want %v", out, want)
		}
		return resp
	}
	peak := func() int64 { return o.Metrics().Gauge("bytes_buffered_peak", "").Value() }

	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		for _, lanes := range []int{1, 2, 4} {
			resp := serve(lanes, mode)
			rowBytes := int64(resp.Stats.TableBytes) / rows
			bound := int64(lanes) * (int64(pipeDepth)*rowBytes + rowBytes/cols)
			if p := peak(); p <= 0 || p > bound {
				t.Fatalf("%s lanes=%d: bytes_buffered_peak = %d, want within (0, %d]", mode, lanes, p, bound)
			}
		}
	}

	shape := precompute.Shape{Rows: rows, Cols: cols, Width: 8, Signed: true, Mode: "matvec", OT: OTBatched.String()}
	if err := eng.Prefill(shape, 1); err != nil {
		t.Fatal(err)
	}
	serve(2, OTBatched)
	if hits, _ := eng.PoolStats(); hits != 1 {
		t.Fatalf("pool hits = %d, want 1", hits)
	}
	if p := peak(); p != 0 {
		t.Fatalf("bytes_buffered_peak = %d after a precompute hit, want 0", p)
	}
}

// batchedRun is a batched client that closes otDone once its one OT is
// done: Dial, then one request whose ot.ReceiveLabels runs before it
// reads any material, evaluated on one goroutine, then Close.
func batchedRun(c *Client, conn wire.Conn, y []int64, otDone chan<- struct{}) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	if err := cs.tc.SendMsg([]byte{tagReqOpen}); err != nil {
		return nil, err
	}
	hdr, err := recvFrame(cs.tc, parseReqHeader)
	if err != nil {
		return nil, err
	}
	if hdr.OT != OTBatched || hdr.Cols != len(y) {
		return nil, fmt.Errorf("batched client: got a %s request of %d columns", hdr.OT, hdr.Cols)
	}
	var choices []bool
	for _, v := range y {
		choices = append(choices, circuit.Int64ToBits(v, cs.h.Width)...)
	}
	shared, err := ot.ReceiveLabels(cs.receiver, choices)
	if err != nil {
		return nil, err
	}
	close(otDone)
	ev, err := gc.NewEvaluator(gc.DefaultParams(), cs.macCkt)
	if err != nil {
		return nil, err
	}
	outs := make([]int64, hdr.Rows)
	for row := range outs {
		var res *gc.EvalResult
		for round := range y {
			in := chainRound{active: shared[round*cs.h.Width : (round+1)*cs.h.Width]}
			if in.m, in.frame, err = recvMaterial(cs.tc); err != nil {
				return nil, err
			}
			if res, err = in.eval(ev, res, row, round); err != nil {
				return nil, err
			}
		}
		outs[row] = cs.decode(res.Outputs)
	}
	if err := cs.tc.SendMsg(appendResult(nil, outs)); err != nil {
		return nil, err
	}
	return outs, cs.Close()
}

// TestBatchedOTBeforeRowZero pins when a batched request's one OT runs:
// once the session goroutine dequeues round 0, not once row 0 is
// garbled, because the request key fixes every pair. Row 0's lane is
// parked after queueing round 0 until the client's ot.ReceiveLabels has
// returned. A server that held row 0 for the OT would leave the two
// waiting on each other, so the park gives up after 5 s and fails the
// test, and the request then finishes either way.
func TestBatchedOTBeforeRowZero(t *testing.T) {
	A := [][]int64{{1, -2, 3, 4}, {5, 6, -7, 8}, {-9, 10, 11, -12}}
	y := []int64{7, -8, 9, -10}
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var otDone chan struct{}
	garbleRoundTestHook = func(row, round int) {
		if row != 0 || round != 0 {
			return
		}
		select {
		case <-otDone:
		case <-time.After(5 * time.Second):
			t.Errorf("the client's batched OT had not returned 5 s after row 0's round 0 was queued")
		}
	}
	t.Cleanup(func() { garbleRoundTestHook = nil })

	for _, lanes := range []int{1, 2} {
		otDone = make(chan struct{}) // no lane runs between requests
		a, b := wire.Pipe()
		var srvErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, srvErr = serveOne(srv, a, SessionConfig{GarbleWorkers: lanes}, Request{Matrix: A, OT: OTBatched})
		}()
		out, err := batchedRun(cli, b, y, otDone)
		<-done
		a.Close()
		b.Close()
		if err != nil || srvErr != nil {
			t.Fatalf("lanes=%d: client %v, server %v", lanes, err, srvErr)
		}
		for i, row := range A {
			var want int64
			for j := range row {
				want += row[j] * y[j]
			}
			if out[i] != want {
				t.Fatalf("lanes=%d: row %d = %d, want %d", lanes, i, out[i], want)
			}
		}
	}
}

// recycledRoundsDigest is the SHA-256 of the server frames (each behind
// its 4-byte big-endian length) of TestRecycledRoundsTranscriptDigest's
// session, recorded before the serve path recycled rounds and frame
// bodies, when every round and every received frame was allocated
// fresh. It was re-pinned once, for v7, on that fresh-allocating path
// (each lane on an unpooled gc.Lane): the rows of each request share
// the evaluator's input labels, so rows ≥ 1 run no OT (two fewer
// per-round OT frames in each 2×3 request, and the batched 3×2 OT
// covers 2·8 labels instead of 6·8), and every label moves.
const recycledRoundsDigest = "0427624b2251be6fa4f46e0d11512f3c998e04df0a7772838a94fdc6971251bd"

// TestRecycledRoundsTranscriptDigest serves three requests on one
// seeded two-lane session — per-round 2×3, batched 3×2, per-round 2×3 —
// so the rounds and bodies the first request releases come back as the
// later requests' rounds, round 0s as later rounds and the other way
// round. No byte of a released round may reach the wire: the server's
// byte stream must equal the one the fresh-allocating path sent, and
// every result must be right.
func TestRecycledRoundsTranscriptDigest(t *testing.T) {
	drbg, err := label.NewDRBG([16]byte{41})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: drbg})
	if err != nil {
		t.Fatal(err)
	}
	cdrbg, err := label.NewDRBG([16]byte{42})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(cdrbg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	rec := &recordingConn{Conn: a}

	reqs := []struct {
		req Request
		y   []int64
	}{
		{Request{Matrix: [][]int64{{1, -2, 3}, {-4, 5, -6}}}, []int64{7, -8, 9}},
		{Request{Matrix: [][]int64{{10, -11}, {12, 13}, {-14, 15}}, OT: OTBatched}, []int64{-16, 17}},
		{Request{Matrix: [][]int64{{-18, 19, -20}, {21, -22, 23}}}, []int64{24, -25, 26}},
	}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(rec, SessionConfig{GarbleWorkers: 2})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for _, r := range reqs {
			if _, err := sess.Serve(r.req); err != nil {
				srvErr = err
				return
			}
		}
		if _, err := sess.Serve(reqs[0].req); !errors.Is(err, ErrSessionEnded) {
			srvErr = fmt.Errorf("after the client closed: %v, want ErrSessionEnded", err)
		}
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		out, err := cs.Do(r.y)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for row, x := range r.req.Matrix {
			var want int64
			for j := range x {
				want += x[j] * r.y[j]
			}
			if out[row] != want {
				t.Fatalf("request %d row %d = %d, want %d", i, row, out[row], want)
			}
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if d := framesDigest(rec.frames()); d != recycledRoundsDigest {
		t.Fatalf("transcript digest %s, want %s", d, recycledRoundsDigest)
	}
}

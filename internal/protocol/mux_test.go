package protocol

// Tests for the v2 protocol surface: multiplexed sessions, the
// parallel row-garbling pool, version negotiation, and the error
// paths (client disconnect mid-rounds must surface a wrapped wire
// error, never hang).

import (
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
)

// recordingConn captures every frame sent through it, so tests can
// assert wire-level properties (label freshness) without changing the
// protocol.
type recordingConn struct {
	wire.Conn
	mu   sync.Mutex
	sent [][]byte
}

func (r *recordingConn) SendMsg(m []byte) error {
	cp := append([]byte(nil), m...)
	r.mu.Lock()
	r.sent = append(r.sent, cp)
	r.mu.Unlock()
	return r.Conn.SendMsg(m)
}

func (r *recordingConn) frames() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.sent...)
}

func TestMultiplexedSessionAmortizesOTSetup(t *testing.T) {
	o := obs.New(8)
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
	rec := &recordingConn{Conn: a}

	A := [][]int64{{1, 2, 3}, {-4, 5, -6}}
	y := []int64{7, -8, 9}
	want := []int64{7 - 16 + 27, -28 - 40 - 54}
	const requests = 8

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(rec, SessionConfig{})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for {
			resp, err := sess.Serve(Request{Matrix: A})
			if errors.Is(err, ErrSessionEnded) {
				return
			}
			if err != nil {
				srvErr = err
				return
			}
			for i := range want {
				if resp.Values[i] != want[i] {
					srvErr = fmt.Errorf("server row %d = %d, want %d", i, resp.Values[i], want[i])
					return
				}
			}
		}
	}()

	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < requests; r++ {
		out, err := cs.Do(y)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("request %d row %d = %d, want %d", r, i, out[i], want[i])
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
	if cs.Requests() != requests {
		t.Fatalf("client served %d requests", cs.Requests())
	}

	// Amortization: the whole connection paid exactly one OT setup,
	// while every request got its own rounds and decode phases.
	snaps := o.Traces().Recent(0)
	if len(snaps) != 1 {
		t.Fatalf("%d traces for one connection", len(snaps))
	}
	s := snaps[0]
	if s.Kind != "mux" || !s.Done || s.Err != "" {
		t.Fatalf("trace %+v", s)
	}
	if got := s.SpanCount("ot_setup"); got != 1 {
		t.Fatalf("ot_setup spans = %d, want exactly 1", got)
	}
	if got := s.SpanCount("rounds"); got != requests {
		t.Fatalf("rounds spans = %d, want %d", got, requests)
	}
	if got := s.SpanCount("decode"); got != requests {
		t.Fatalf("decode spans = %d, want %d", got, requests)
	}
	if got := o.Metrics().Histogram("ot_setup_seconds", "", nil).Count(); got != 1 {
		t.Fatalf("ot_setup_seconds count = %d", got)
	}
	if got := o.Metrics().Counter("sessions_total", "", obs.L("kind", "mux")).Value(); got != 1 {
		t.Fatalf("mux sessions_total = %d", got)
	}
	// 8 requests × 6 MACs, all recorded by the per-request simulators.
	if got := o.Metrics().Counter("macs_total", "").Value(); got != 6*requests {
		t.Fatalf("macs_total = %d", got)
	}

	// Fresh labels per request: identical inputs were served eight
	// times; if any two large server frames (garbled material, OT
	// ciphertexts) were byte-identical, labels would have been reused.
	seen := make(map[string]int)
	for i, f := range rec.frames() {
		if len(f) < 200 {
			continue
		}
		if j, dup := seen[string(f)]; dup {
			t.Fatalf("frames %d and %d are byte-identical (%d bytes): labels reused across requests", j, i, len(f))
		}
		seen[string(f)] = i
	}
}

// TestMultiplexedMixedModes drives both OT modes over one connection:
// the OT sender/receiver stay in lockstep across per-round and batched
// requests, in either order.
func TestMultiplexedMixedModes(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()

	A := [][]int64{{2, -3}, {4, 5}}
	y := []int64{6, 7}
	wantMat := []int64{12 - 21, 24 + 35}

	reqs := []Request{
		{Matrix: A},
		{Matrix: A, OT: OTBatched},
		{Matrix: A},
	}

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(a, SessionConfig{GarbleWorkers: 2})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for _, req := range reqs {
			if _, err := sess.Serve(req); err != nil {
				srvErr = fmt.Errorf("serving %v: %w", req.OT, err)
				return
			}
		}
		if _, err := sess.Serve(Request{Matrix: A}); !errors.Is(err, ErrSessionEnded) {
			srvErr = fmt.Errorf("after client close: %v, want ErrSessionEnded", err)
		}
	}()

	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		out, err := cs.Do(y)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for r := range wantMat {
			if out[r] != wantMat[r] {
				t.Fatalf("request %d row %d = %d, want %d", i, r, out[r], wantMat[r])
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
}

// TestConcurrentMuxSessions hammers one Server with parallel
// multiplexed connections (run under -race by the tier-1 recipe), each
// carrying several requests garbled by a worker pool.
func TestConcurrentMuxSessions(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	const requests = 3
	errs := make(chan error, 2*clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		A := [][]int64{{int64(c + 1), 2}, {3, int64(-c - 1)}}
		y := []int64{5, -7}
		want := []int64{A[0][0]*5 - 14, 15 + A[1][1]*-7}
		ca, cb := wire.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer ca.Close()
			sess, err := srv.NewSession(ca, SessionConfig{GarbleWorkers: 2})
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for {
				_, err := sess.Serve(Request{Matrix: A})
				if errors.Is(err, ErrSessionEnded) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		go func(want []int64) {
			defer wg.Done()
			defer cb.Close()
			cli, err := NewClient(rand.Reader)
			if err != nil {
				errs <- err
				return
			}
			cs, err := cli.Dial(cb)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < requests; r++ {
				out, err := cs.Do(y)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if out[i] != want[i] {
						errs <- fmt.Errorf("row %d = %d, want %d", i, out[i], want[i])
						return
					}
				}
			}
			if err := cs.Close(); err != nil {
				errs <- err
			}
		}(want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelGarblingMatchesSequential pins the ordering guarantee:
// whatever the pool size, the streamed session computes the same
// matvec (the wire format is reordered into row order).
func TestParallelGarblingMatchesSequential(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 32, Signed: true}
	A := make([][]int64, 16)
	y := []int64{3, -5, 7, -9}
	want := make([]int64, len(A))
	for i := range A {
		A[i] = make([]int64, len(y))
		for j := range A[i] {
			A[i][j] = int64((i*7+j*13)%250 - 125)
			want[i] += A[i][j] * y[j]
		}
	}
	for _, workers := range []int{1, 3, 8} {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewClient(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		a, b := wire.Pipe()
		var wg sync.WaitGroup
		var resp *Response
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, srvErr = serveOne(srv, a, SessionConfig{GarbleWorkers: workers}, Request{Matrix: A})
		}()
		out, err := clientRun(cli, b, y)
		wg.Wait()
		a.Close()
		b.Close()
		if err != nil || srvErr != nil {
			t.Fatalf("workers=%d: client %v server %v", workers, err, srvErr)
		}
		for i := range want {
			if out[i] != want[i] || resp.Values[i] != want[i] {
				t.Fatalf("workers=%d row %d: client %d server %d, want %d", workers, i, out[i], resp.Values[i], want[i])
			}
		}
		if resp.Stats.MACs != uint64(len(A)*len(y)) {
			t.Fatalf("workers=%d: stats %d MACs", workers, resp.Stats.MACs)
		}
	}
}

// TestGarblePoolMetrics checks the lanes' instrumentation: every row
// counted and timed once, the lane count recorded.
func TestGarblePoolMetrics(t *testing.T) {
	o := obs.New(4)
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	A := [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = serveOne(srv, a, SessionConfig{GarbleWorkers: 4}, Request{Matrix: A})
	}()
	if _, err := clientRun(cli, b, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	reg := o.Metrics()
	if got := reg.Counter("garble_rows_total", "").Value(); got != uint64(len(A)) {
		t.Fatalf("garble_rows_total = %d", got)
	}
	if got := reg.Gauge("garble_workers", "").Value(); got != 4 {
		t.Fatalf("garble_workers = %d", got)
	}
	if got := reg.Histogram("garble_row_seconds", "", nil).Count(); got != uint64(len(A)) {
		t.Fatalf("garble_row_seconds count = %d", got)
	}
}

// disconnectMidRounds opens a request like a real client, then drops
// the connection before evaluating, and returns the server error.
func disconnectMidRounds(t *testing.T, mode OTMode) error {
	t.Helper()
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()

	srvDone := make(chan error, 1)
	go func() {
		_, err := serveOne(srv, a, SessionConfig{}, Request{Matrix: [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}, OT: mode})
		srvDone <- err
	}()

	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	// Open the request by hand — request open out, request header in —
	// then vanish. The server is now mid-rounds, waiting on OT traffic
	// that will never come.
	openRequestByHand(t, cs)
	b.Close()

	select {
	case err := <-srvDone:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("server hung after client disconnect mid-rounds")
		return nil
	}
}

func TestClientDisconnectMidRoundsBatched(t *testing.T) {
	err := disconnectMidRounds(t, OTBatched)
	if err == nil {
		t.Fatal("server reported success after client disconnect")
	}
	if !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("error does not wrap the wire failure: %v", err)
	}
}

func TestClientDisconnectMidRoundsPerRound(t *testing.T) {
	err := disconnectMidRounds(t, OTPerRound)
	if err == nil {
		t.Fatal("server reported success after client disconnect")
	}
	if !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("error does not wrap the wire failure: %v", err)
	}
}

// wantMismatch fails unless err is a version mismatch naming this
// generation and, when the peer's is knowable (peer > 0: it framed a v4
// hello or ack around another number), the peer's too — so an operator
// can tell which side to upgrade.
func wantMismatch(t *testing.T, err error, peer int) {
	t.Helper()
	if !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", ProtoVersion)) ||
		(peer > 0 && !strings.Contains(err.Error(), fmt.Sprintf("v%d", peer))) {
		t.Fatalf("error = %v, want ErrVersionMismatch naming v%d (peer v%d)", err, ProtoVersion, peer)
	}
}

// clientRejectsFirstFrame plays a server whose first frame is frame and
// returns what Dial makes of it. The scripted server sends nothing
// else, so a client that accepted the frame fails on its handshake
// budget instead of hanging.
func clientRejectsFirstFrame(t *testing.T, frame []byte) error {
	t.Helper()
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithTimeouts(Timeouts{Handshake: faultBudget, IO: faultBudget})
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.SendMsg(frame); err != nil {
		t.Fatal(err)
	}
	cb := wire.NewCounting(b)
	_, err = cli.Dial(cb)
	if _, _, sent, _ := cb.Totals(); sent != 0 {
		t.Fatalf("client sent %d frames after a first frame it had to refuse", sent)
	}
	return err
}

// serverRejectsFirstFrames answers the server's hello with the given
// client frames and returns the server's error.
func serverRejectsFirstFrames(t *testing.T, frames ...[]byte) error {
	t.Helper()
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	ca := wire.NewCounting(a)
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.NewSession(ca, SessionConfig{})
		srvDone <- err
	}()
	if _, err := b.RecvMsg(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := b.SendMsg(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-srvDone:
		if _, _, sent, _ := ca.Totals(); sent != 1 {
			t.Fatalf("server sent %d frames, want its hello and nothing after", sent)
		}
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("server hung on a foreign handshake frame")
		return nil
	}
}

// A v1 server opened with a gob hello that had no ProtoVersion field.
func TestClientRejectsUnversionedServer(t *testing.T) {
	wantMismatch(t, clientRejectsFirstFrame(t, v1GobHello), 0)
}

// A v1 client never acked: it read the hello and immediately opened its
// base-OT phase. The server must name the version mismatch instead of
// failing with a bare parse error.
func TestServerRejectsUnversionedClient(t *testing.T) {
	wantMismatch(t, serverRejectsFirstFrames(t, []byte{0x01, 0x02, 0x03, 0x04}), 0)
}

func TestServerRejectsFutureVersionAck(t *testing.T) {
	wantMismatch(t, serverRejectsFirstFrames(t, appendHelloAck(nil, 99)), 99)
}

// An ack that names another generation inside this generation's
// framing.
func TestServerRejectsV2Ack(t *testing.T) {
	wantMismatch(t, serverRejectsFirstFrames(t, appendHelloAck(nil, 2)), 2)
}

// The mirror image: the hello carries the server's version first, and
// the client stops there.
func TestClientRejectsV2Hello(t *testing.T) {
	frame := appendHello(nil, hello{ProtoVersion: 2, Width: 8, AccWidth: 24, Signed: true})
	wantMismatch(t, clientRejectsFirstFrame(t, frame), 2)
}

// TestDialRefusesUnservableHelloWidths: the client builds its MAC
// netlist from the hello, at a cost that grows with Width², so a
// hostile hello announcing Width 1024 used to cost Dial ≈ 1.4 GiB before
// OT began (and the largest u16 width more memory than the host has).
// Dial now checks the shape against the served bound first — an
// accumulator wider than 64 bits could never decode into an int64
// anyway — and refuses it by name without acking or building anything.
func TestDialRefusesUnservableHelloWidths(t *testing.T) {
	for _, h := range []hello{
		{Width: 1024, AccWidth: 2048},
		{Width: 32, AccWidth: 65, Signed: true},
		{Width: 8, AccWidth: 15},
		{Width: 0, AccWidth: 16},
	} {
		h.ProtoVersion = ProtoVersion
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := clientRejectsFirstFrame(t, appendHello(nil, h))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "2·width ≤ accumulator ≤ 64") {
			t.Fatalf("hello %+v: Dial error = %v, want one naming the served bound", h, err)
		}
		if kib := (after.TotalAlloc - before.TotalAlloc) >> 10; kib >= 16<<10 {
			t.Fatalf("hello %+v: Dial allocated %d KiB before refusing it, want < 16 MiB", h, kib)
		}
	}
}

// TestV3GobFramesRejected: v3 is the mismatch that exists in the field.
// It framed its control messages with gob, so none of its first frames
// carries a v4 tag; each (captured bytes, see frames_test.go) must be
// refused by name before any OT byte moves — including the busy frame,
// whose retry hint a v4 client cannot trust itself to read, and the
// hint, which a directly-dialed v4 server would otherwise skip.
func TestV3GobFramesRejected(t *testing.T) {
	t.Run("hello", func(t *testing.T) { wantMismatch(t, clientRejectsFirstFrame(t, v3GobHello), 0) })
	t.Run("busy", func(t *testing.T) { wantMismatch(t, clientRejectsFirstFrame(t, v3GobBusy), 0) })
	t.Run("ack", func(t *testing.T) { wantMismatch(t, serverRejectsFirstFrames(t, v3GobAck), 0) })
	t.Run("hint", func(t *testing.T) { wantMismatch(t, serverRejectsFirstFrames(t, v3GobHint, v3GobAck), 0) })
}

// TestOTModeValidation pins the single-place enum validation.
func TestOTModeValidation(t *testing.T) {
	for _, m := range []OTMode{OTPerRound, OTBatched} {
		if err := m.validate(); err != nil {
			t.Fatalf("%s rejected: %v", m, err)
		}
	}
	// 2 was correlated OT, retired in PR 13.
	for _, m := range []OTMode{2, 42} {
		if err := m.validate(); err == nil {
			t.Fatalf("unknown OT mode %d accepted", int(m))
		}
	}
	if OTPerRound.String() != "per-round" || OTBatched.String() != "batched" {
		t.Fatal("OTMode names wrong")
	}
}

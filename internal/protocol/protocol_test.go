package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"maxelerator/internal/gc"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// serveOne serves exactly one request on a fresh session over conn: the
// request, then the client's session end (a second Serve that must
// report ErrSessionEnded), then Close.
func serveOne(srv *Server, conn wire.Conn, cfg SessionConfig, req Request) (*Response, error) {
	sess, err := srv.NewSession(conn, cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	resp, err := sess.Serve(req)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Serve(req); !errors.Is(err, ErrSessionEnded) {
		if err == nil {
			err = errors.New("the client opened a second request on a one-request session")
		}
		return nil, err
	}
	return resp, nil
}

// serveValues serves one request (serveOne) and splits the response.
func serveValues(srv *Server, conn wire.Conn, req Request) ([]int64, Stats, error) {
	resp, err := serveOne(srv, conn, SessionConfig{}, req)
	if err != nil {
		return nil, Stats{}, err
	}
	return resp.Values, resp.Stats, nil
}

// clientRun is the retired Client.Run convenience kept test-side: one
// Dial + Do + Close over a fresh connection.
func clientRun(c *Client, conn wire.Conn, y []int64) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	out, err := cs.Do(y)
	if err != nil {
		return nil, err
	}
	if err := cs.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// sendEach sends msgs through c one SendMsg at a time: a test wrapper's
// SendMsgs, so that its SendMsg hook sees every frame of a batch.
func sendEach(c wire.Conn, msgs [][]byte) error {
	for _, m := range msgs {
		if err := c.SendMsg(m); err != nil {
			return err
		}
	}
	return nil
}

// runSession wires a server and client over an in-memory pipe.
func runSession(t *testing.T, cfg maxsim.Config, A [][]int64, y []int64) (serverOut []int64, clientOut []int64, st Stats) {
	t.Helper()
	srv, err := NewServer(cfg)
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

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverOut, st, srvErr = serveValues(srv, a, Request{Matrix: A})
	}()
	clientOut, err = clientRun(cli, b, y)
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return serverOut, clientOut, st
}

func TestDotProductOverPipe(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	x := []int64{3, -5, 7, 11}
	y := []int64{2, 4, -6, 8}
	want := int64(3*2 - 5*4 - 7*6 + 11*8)
	serverOut, clientOut, st := runSession(t, cfg, [][]int64{x}, y)
	if clientOut[0] != want {
		t.Fatalf("client result = %d, want %d", clientOut[0], want)
	}
	if serverOut[0] != want {
		t.Fatalf("server-learned result = %d, want %d", serverOut[0], want)
	}
	if st.MACs != 4 || st.TableBytes == 0 {
		t.Fatalf("server stats incomplete: %+v", st)
	}
}

func TestMatVecOverPipe(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	A := [][]int64{{1, 2}, {-3, 4}, {5, -6}}
	y := []int64{7, -9}
	_, clientOut, _ := runSession(t, cfg, A, y)
	want := []int64{7 - 18, -21 - 36, 35 + 54}
	for i := range want {
		if clientOut[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, clientOut[i], want[i])
		}
	}
}

func TestUnsignedSession(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 20}
	_, clientOut, _ := runSession(t, cfg, [][]int64{{200, 100}}, []int64{250, 3})
	if clientOut[0] != 200*250+100*3 {
		t.Fatalf("unsigned result = %d", clientOut[0])
	}
}

func TestRandomisedSessionsAgainstPlaintext(t *testing.T) {
	rng := mrand.New(mrand.NewSource(42))
	cfg := maxsim.Config{Width: 8, AccWidth: 32, Signed: true}
	for trial := 0; trial < 3; trial++ {
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(5)
		A := make([][]int64, n)
		want := make([]int64, n)
		y := make([]int64, m)
		for j := range y {
			y[j] = int64(rng.Intn(256) - 128)
		}
		for i := range A {
			A[i] = make([]int64, m)
			for j := range A[i] {
				A[i][j] = int64(rng.Intn(256) - 128)
				want[i] += A[i][j] * y[j]
			}
		}
		_, clientOut, _ := runSession(t, cfg, A, y)
		for i := range want {
			if clientOut[i] != want[i] {
				t.Fatalf("trial %d row %d = %d, want %d", trial, i, clientOut[i], want[i])
			}
		}
	}
}

func TestSessionOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []int64{12, -34}
	y := []int64{-5, 6}
	want := int64(12*-5 + -34*6)

	var wg sync.WaitGroup
	var srvOut int64
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			srvErr = err
			return
		}
		conn := wire.NewStreamConn(c)
		defer conn.Close()
		var vals []int64
		vals, _, srvErr = serveValues(srv, conn, Request{Matrix: [][]int64{x}})
		if srvErr == nil {
			srvOut = vals[0]
		}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewStreamConn(nc)
	defer conn.Close()
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clientRun(cli, conn, y)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if got[0] != want || srvOut != want {
		t.Fatalf("TCP session: client %d server %d, want %d", got[0], srvOut, want)
	}
}

func TestVectorLengthMismatchRejected(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8})
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
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveOne(srv, a, SessionConfig{}, Request{Matrix: [][]int64{{1, 2, 3}}})
	}()
	if _, err := clientRun(cli, b, []int64{1}); err == nil {
		t.Fatal("length mismatch accepted by client")
	}
	a.Close() // unblock server
	wg.Wait()
}

func TestClientRejectsOutOfRangeInput(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8, Signed: true})
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
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveOne(srv, a, SessionConfig{}, Request{Matrix: [][]int64{{1}}})
	}()
	if _, err := clientRun(cli, b, []int64{500}); err == nil {
		t.Fatal("out-of-range client value accepted")
	}
	a.Close()
	wg.Wait()
}

// refusesThenServes opens a session and checks that Serve refuses each
// bad request before any wire traffic, leaving the session usable: a
// well-formed request then serves on it.
func refusesThenServes(t *testing.T, bad map[string]Request) {
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
	ca := wire.NewCounting(a)
	opened := make(chan *ServerSession, 1)
	go func() {
		sess, err := srv.NewSession(ca, SessionConfig{})
		if err != nil {
			t.Error(err)
		}
		opened <- sess
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	sess := <-opened
	if sess == nil {
		t.FailNow()
	}
	defer sess.Close()
	sent, recv, _, _ := ca.Totals()
	for name, req := range bad {
		if _, err := sess.Serve(req); err == nil {
			t.Fatalf("%s request accepted", name)
		}
	}
	if s, r, _, _ := ca.Totals(); s != sent || r != recv {
		t.Fatalf("refusals moved %d bytes out and %d in, want none", s-sent, r-recv)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Serve(Request{Matrix: [][]int64{{2, -3}}})
		done <- err
	}()
	out, err := cs.Do([]int64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("session unusable after the refusals: %v", err)
	}
	if out[0] != 2*4-3*5 {
		t.Fatalf("result %d after the refusals, want %d", out[0], 2*4-3*5)
	}
}

func TestServerValidation(t *testing.T) {
	// One width-8 batched row whose labels pass the bound one OT frame
	// sets (checkShape): no client could ever be served it.
	wide := make([]int64, wire.MaxMessageSize/(2*label.Size)/8+1)
	refusesThenServes(t, map[string]Request{
		"empty":                  {},
		"ragged":                 {Matrix: [][]int64{{1, 2}, {3}}},
		"batched past the bound": {Matrix: [][]int64{wide}, OT: OTBatched},
	})
}

// TestServeRefusesOutOfRangeMatrixBeforeAnyFrame: a matrix entry
// outside the configured width is refused while the client's request
// open waits, before the header or any material leaves — inline and on
// a pool hit — and the same open is then served a good matrix. The
// server used to send the header and row 0, fail at the entry, and leave
// the client blocked on a half-sent request.
func TestServeRefusesOutOfRangeMatrixBeforeAnyFrame(t *testing.T) {
	bad := [][]int64{{1, 2, 3}, {4, 300, 6}}
	good := [][]int64{{1, 2, 3}, {4, 5, 6}}
	y := []int64{1, -1, 2}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%t", pooled), func(t *testing.T) {
			cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shape := precompute.Shape{Rows: 2, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
			var eng *precompute.Engine
			if pooled {
				if eng, err = precompute.New(precompute.Config{Sim: cfg}); err != nil {
					t.Fatal(err)
				}
				defer eng.Stop()
				if err := eng.Prefill(shape, 1); err != nil {
					t.Fatal(err)
				}
				srv.WithPrecompute(eng)
			}
			cli, err := NewClient(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			a, b := wire.Pipe()
			rec := &recordingConn{Conn: a}
			opened := make(chan *ServerSession, 1)
			go func() {
				sess, err := srv.NewSession(rec, SessionConfig{GarbleWorkers: 2})
				if err != nil {
					t.Error(err)
				}
				opened <- sess
			}()
			cs, err := cli.Dial(b)
			if err != nil {
				t.Fatal(err)
			}
			sess := <-opened
			if sess == nil {
				t.FailNow()
			}
			defer sess.Close()
			var out []int64
			var doErr error
			var client sync.WaitGroup
			client.Add(1)
			go func() {
				defer client.Done()
				out, doErr = cs.Do(y)
			}()
			defer func() {
				a.Close()
				b.Close()
				client.Wait()
			}()

			before := len(rec.frames())
			if _, err := sess.Serve(Request{Matrix: bad}); err == nil || !strings.Contains(err.Error(), "value 300 outside signed 8-bit range") {
				t.Fatalf("Serve(out-of-range) error = %v, want the range refusal", err)
			}
			if sent := len(rec.frames()) - before; sent != 0 {
				t.Fatalf("the refused request sent %d frames, want none", sent)
			}
			if pooled && eng.Depth(shape) != 1 {
				t.Fatal("the refused request consumed a pool entry")
			}
			if _, err := sess.Serve(Request{Matrix: good}); err != nil {
				t.Fatalf("session unusable after the refusal: %v", err)
			}
			client.Wait()
			if doErr != nil || len(out) != 2 || out[0] != 5 || out[1] != 11 {
				t.Fatalf("client got %v, %v; want [5 11]", out, doErr)
			}
			if hits, _ := eng.PoolStats(); pooled && hits != 1 {
				t.Fatalf("the good request hit the pool %d times, want 1", hits)
			}
		})
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(nil); err == nil {
		t.Fatal("nil randomness accepted")
	}
}

// TestGarblingParamsFixedByVersion: the v4 hello names no scheme and no
// hash, and every client evaluates half gates over fixed-key AES — so a
// server configured with anything else is refused at construction. It
// used to handshake cleanly and report [7362817] for this dot product.
func TestGarblingParamsFixedByVersion(t *testing.T) {
	base := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	for name, p := range map[string]gc.Params{
		"half-gates/sha256":      {Hash: gchash.NewSHA256(), Scheme: gc.HalfGates{}},
		"grr3/fixed-key-aes":     {Hash: gchash.MustAES(), Scheme: gc.GRR3{}},
		"four-row/fixed-key-aes": {Hash: gchash.MustAES(), Scheme: gc.FourRow{}},
	} {
		cfg := base
		cfg.Params = p
		_, err := NewServer(cfg)
		if err == nil || !strings.Contains(err.Error(), "fixes half-gates/fixed-key-aes, got "+name) {
			t.Errorf("%s: NewServer error = %v, want one naming both parameter sets", name, err)
		}
	}
	_, out, _ := runSession(t, base, [][]int64{{1, 2, 3}}, []int64{3, 3, 3})
	if len(out) != 1 || out[0] != 18 {
		t.Fatalf("default parameters: got %v, want [18]", out)
	}
}

// TestNewServerRefusesUnservableWidths: every client refuses a hello
// outside the served bound (TestDialRefusesUnservableHelloWidths), so a
// server configured outside it — maxd -b 64 — fails at boot, naming the
// bound, instead of failing every session. The widest servable shape
// still builds.
func TestNewServerRefusesUnservableWidths(t *testing.T) {
	for _, cfg := range []maxsim.Config{
		{Width: 32, AccWidth: 65, Signed: true},
		{Width: 64},
	} {
		if _, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), "2·width ≤ accumulator ≤ 64") {
			t.Errorf("NewServer(%+v) error = %v, want one naming the served bound", cfg, err)
		}
	}
	if _, err := NewServer(maxsim.Config{Width: 32, AccWidth: 64, Signed: true}); err != nil {
		t.Fatalf("b=32 with a 64-bit accumulator refused: %v", err)
	}
}

func TestBatchedOTSession(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, 8, 9}
	want := []int64{7 - 16 + 27, 28 + 40 - 54}

	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var srvOut []int64
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvOut, _, srvErr = serveValues(srv, a, Request{Matrix: A, OT: OTBatched})
	}()
	got, err := clientRun(cli, b, y)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	for i := range want {
		if got[i] != want[i] || srvOut[i] != want[i] {
			t.Fatalf("row %d: client %d server %d, want %d", i, got[i], srvOut[i], want[i])
		}
	}
}

func TestBatchedOTUsesFewerMessages(t *testing.T) {
	// The §3 tradeoff: batching collapses the per-round OT exchanges
	// into one. Every row shares the evaluator's labels, so per-round
	// mode runs one exchange (u matrix, then ciphertexts) per column,
	// not per row and column: 2·(cols−1) messages more than batched
	// mode's one exchange, and a further row adds only its material.
	const cols = 6
	run := func(rows int, mode OTMode) int64 {
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
		cb := wire.NewCounting(b)
		A := make([][]int64, rows)
		for i := range A {
			A[i] = []int64{1, 2, 3, 4, 5, 6}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveOne(srv, a, SessionConfig{}, Request{Matrix: A, OT: mode})
		}()
		if _, err := clientRun(cli, cb, []int64{1, 1, 1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		_, _, sentMsgs, recvMsgs := cb.Totals()
		return sentMsgs + recvMsgs
	}
	perRound := run(3, OTPerRound)
	batched := run(3, OTBatched)
	if perRound-batched != 2*(cols-1) {
		t.Fatalf("3×%d: per-round OT used %d messages, batched %d; want 2·(cols−1) = %d more", cols, perRound, batched, 2*(cols-1))
	}
	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		if d := run(4, mode) - run(3, mode); d != cols {
			t.Fatalf("%s: a fourth row added %d messages, want its %d material frames", mode, d, cols)
		}
	}
}

// otAnswers is the server's side of a connection: it counts the OT
// answers the server sends once a request is open, and their labels.
// Inside a request the server receives only u matrices, then the
// result, and the OT sender answers each u matrix with the last frame
// of its next send, 32 bytes a transfer: a SendMsg, or a SendMsgs that
// carries a round's material ahead of the answer. Every call runs on
// the session goroutine.
type otAnswers struct {
	wire.Conn
	open, answer       bool // a request is open; a u matrix awaits its answer
	answers, transfers int
}

func (c *otAnswers) RecvMsg() ([]byte, error) {
	m, err := c.Conn.RecvMsg()
	if err == nil {
		opens := len(m) == 1 && m[0] == tagReqOpen
		c.answer = c.open && !opens
		c.open = c.open || opens
	}
	return m, err
}

func (c *otAnswers) SendMsg(m []byte) error {
	c.count(m)
	return c.Conn.SendMsg(m)
}

func (c *otAnswers) SendMsgs(ms [][]byte) error {
	c.count(ms[len(ms)-1])
	return c.Conn.SendMsgs(ms)
}

func (c *otAnswers) count(m []byte) {
	if c.answer {
		c.answer = false
		c.answers++
		c.transfers += len(m) / 32
	}
}

func (c *otAnswers) Unwrap() wire.Conn { return c.Conn }

// TestOTLabelsPerRequest: a request transfers the evaluator's labels of
// each column once, Cols·Width transfers whatever its row count, in one
// answer (batched) or one per column (per-round), inline and on a pool
// hit. Each row of the matrix is different, and every result is A·y.
func TestOTLabelsPerRequest(t *testing.T) {
	const cols, width = 5, 8
	y := []int64{3, -1, 4, -1, 5}
	for _, rows := range []int{1, 4, 16} {
		A := make([][]int64, rows)
		want := make([]int64, rows)
		for i := range A {
			A[i] = make([]int64, cols)
			for j := range A[i] {
				A[i][j] = int64((i*7+j*13)%41 - 20)
				want[i] += A[i][j] * y[j]
			}
		}
		for _, mode := range []OTMode{OTPerRound, OTBatched} {
			for _, hit := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/hit=%t", rows, cols, mode, hit)
				cfg := maxsim.Config{Width: width, AccWidth: 24, Signed: true}
				srv, err := NewServer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				req := Request{Matrix: A, OT: mode}
				if hit {
					eng, err := precompute.New(precompute.Config{Sim: cfg, PoolSize: 1})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(eng.Stop)
					srv.WithPrecompute(eng)
					if err := eng.Prefill(srv.shapeOf(req), 1); err != nil {
						t.Fatal(err)
					}
				}
				cli, err := NewClient(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				a, b := wire.Pipe()
				rec := &otAnswers{Conn: a}
				var srvErr error
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, srvErr = serveOne(srv, rec, SessionConfig{GarbleWorkers: 2}, req)
				}()
				out, err := clientRun(cli, b, y)
				wg.Wait()
				a.Close()
				b.Close()
				if err != nil || srvErr != nil {
					t.Fatalf("%s: client %v, server %v", name, err, srvErr)
				}
				if !slices.Equal(out, want) {
					t.Fatalf("%s: result %v, want %v", name, out, want)
				}
				wantAnswers := cols
				if mode == OTBatched {
					wantAnswers = 1
				}
				if rec.transfers != cols*width || rec.answers != wantAnswers {
					t.Fatalf("%s: %d OT transfers in %d answers, want %d in %d", name, rec.transfers, rec.answers, cols*width, wantAnswers)
				}
			}
		}
	}
}

func TestUnknownOTModeRejected(t *testing.T) {
	// 2 was correlated OT, since retired.
	refusesThenServes(t, map[string]Request{
		"OT mode 2":  {Matrix: [][]int64{{1}}, OT: 2},
		"OT mode 99": {Matrix: [][]int64{{1}}, OT: 99},
	})
}

func TestConcurrentSessions(t *testing.T) {
	// The cloud server of Fig. 1 serves multiple clients at once; each
	// session garbles under its own fresh labels and must not interfere
	// with the others.
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	var wg sync.WaitGroup
	errs := make(chan error, sessions*2)
	for s := 0; s < sessions; s++ {
		x := []int64{int64(s + 1), int64(2 * (s + 1))}
		y := []int64{3, -4}
		want := x[0]*3 + x[1]*-4
		ca, cb := wire.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer ca.Close()
			if _, err := serveOne(srv, ca, SessionConfig{}, Request{Matrix: [][]int64{x}}); err != nil {
				errs <- err
			}
		}()
		go func(want int64) {
			defer wg.Done()
			defer cb.Close()
			cli, err := NewClient(rand.Reader)
			if err != nil {
				errs <- err
				return
			}
			got, err := clientRun(cli, cb, y)
			if err != nil {
				errs <- err
				return
			}
			if got[0] != want {
				errs <- fmt.Errorf("session result %d, want %d", got[0], want)
			}
		}(want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

package protocol

// Fault-matrix tests: the faultconn harness drives every protocol
// phase — handshake, OT setup, request open, rounds, decode — into the
// silent-peer fault, for every OT mode. The invariants under test are
// the ones a cloud deployment depends on: a server facing a stalled
// peer returns ErrPhaseTimeout (never wire.IsDisconnect, never a hang)
// within its phase budget, releases the session, and leaves the
// garbling-pool gauges at zero. A stall sweep over the client's
// message indices reaches every phase without hand-scripting each one:
// the learning run counts the healthy session's ops, then stalls are
// injected at sampled indices across that range.

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

// faultBudget is the fixed per-phase budget of the single-scenario
// tests. The matrix derives its budget from a measured healthy
// baseline instead, because the budget must comfortably exceed the
// longest genuine wire-op gap — the server waits one full client
// base-OT computation during OT setup, which stretches under -race and
// slow CI machines.
const faultBudget = 3 * time.Second

func faultMatrixServer(t *testing.T, to Timeouts) (*Server, *obs.Obs) {
	t.Helper()
	o := obs.New(4)
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o).WithTimeouts(to)
	return srv, o
}

// serveMux runs the full server side of one mux session (serveOne, on
// the two-worker garble pool both fault matrices exercise) and reports
// the terminal error and wall time.
func serveMux(srv *Server, conn wire.Conn, req Request) (error, time.Duration) {
	start := time.Now()
	_, err := serveOne(srv, conn, SessionConfig{GarbleWorkers: 2}, req)
	return err, time.Since(start)
}

// runFaultClient is the full client side; it runs in a goroutine and
// may block inside an injected stall until the harness is closed.
func runFaultClient(conn wire.Conn, y []int64) error {
	cli, err := NewClient(rand.Reader)
	if err != nil {
		return err
	}
	cs, err := cli.Dial(conn)
	if err != nil {
		return err
	}
	if _, err := cs.Do(y); err != nil {
		return err
	}
	return cs.Close()
}

// sampleOps picks stall indices covering the start, early setup,
// middle and end of a healthy run's 1..n op range.
func sampleOps(n int) []int {
	if n <= 0 {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, i := range []int{1, 2, (n + 1) / 2, n} {
		if i >= 1 && i <= n && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

func TestFaultMatrixPeerStall(t *testing.T) {
	before := runtime.NumGoroutine()
	req := Request{Matrix: [][]int64{{1, 2}, {-3, 4}}}
	y := []int64{5, -6}

	t.Run("matrix", func(t *testing.T) {
		for _, mode := range []OTMode{OTPerRound, OTBatched} {
			mode := mode
			mreq := req
			mreq.OT = mode

			// Learning run: a healthy session through a passthrough
			// harness (no deadlines — the peer is live), to count the
			// client's ops and time the baseline.
			srv, _ := faultMatrixServer(t, Timeouts{})
			a, b := wire.Pipe()
			fc := faultconn.New(b, faultconn.Options{})
			clientDone := make(chan error, 1)
			go func() { clientDone <- runFaultClient(fc, y) }()
			serr, healthy := serveMux(srv, a, mreq)
			if serr != nil {
				t.Fatalf("%s healthy run: server: %v", mode, serr)
			}
			if cerr := <-clientDone; cerr != nil {
				t.Fatalf("%s healthy run: client: %v", mode, cerr)
			}
			a.Close()
			fc.Close()
			sends, recvs := fc.Ops()
			if sends < 3 || recvs < 3 {
				t.Fatalf("%s healthy run too small to sweep: %d sends, %d recvs", mode, sends, recvs)
			}
			// The stall budget must exceed the longest genuine wire-op
			// gap, which scales with machine speed and -race overhead —
			// derive it from the measured baseline.
			// healthy spans the whole session, so 2x is a comfortable
			// margin over any single wire-op gap within it.
			budget := 2 * healthy
			if budget < 2*time.Second {
				budget = 2 * time.Second
			}
			to := Timeouts{Handshake: budget, IO: budget}
			// Wall-clock ceiling: the baseline compute plus two phase
			// budgets (acceptance: a stalled peer costs a timeout within
			// 2x the configured deadline, not a pinned session).
			maxWait := 4*healthy + 2*budget + 5*time.Second

			var stalls []faultconn.Options
			if mode == OTPerRound {
				// Full sweep: helloAck, early base OT, IKNP/rounds, end.
				for _, i := range sampleOps(sends) {
					stalls = append(stalls, faultconn.Options{StallOnSend: i})
				}
				stalls = append(stalls, faultconn.Options{StallOnRecv: (recvs + 1) / 2})
			} else {
				// The setup phases are identical across OT modes (already
				// swept above); cover the mode-specific stretch — rounds
				// and decode.
				for _, i := range []int{(sends + 1) / 2, sends} {
					stalls = append(stalls, faultconn.Options{StallOnSend: i})
				}
			}
			for _, opts := range stalls {
				opts := opts
				name := fmt.Sprintf("%s/stall_send_%d", mode, opts.StallOnSend)
				if opts.StallOnRecv > 0 {
					name = fmt.Sprintf("%s/stall_recv_%d", mode, opts.StallOnRecv)
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					srv, o := faultMatrixServer(t, to)
					a, b := wire.Pipe()
					fc := faultconn.New(b, opts)
					done := make(chan error, 1)
					go func() { done <- runFaultClient(fc, y) }()
					t.Cleanup(func() {
						a.Close()
						fc.Close()
						select {
						case <-done:
						case <-time.After(10 * time.Second):
							t.Error("client goroutine not released by harness close")
						}
					})

					serr, elapsed := serveMux(srv, a, mreq)
					if serr == nil {
						t.Fatal("server reported success against a stalled peer")
					}
					if !errors.Is(serr, ErrPhaseTimeout) {
						t.Fatalf("server error = %v, want ErrPhaseTimeout", serr)
					}
					if wire.IsDisconnect(serr) {
						t.Fatalf("timeout misclassified as disconnect: %v", serr)
					}
					if elapsed > maxWait {
						t.Fatalf("server took %v against a stalled peer (ceiling %v)", elapsed, maxWait)
					}

					reg := o.Metrics()
					if got := reg.Gauge("sessions_active", "").Value(); got != 0 {
						t.Errorf("sessions_active = %d after timeout", got)
					}
					var timeouts uint64
					for _, phase := range []string{"handshake", "ot_setup", "request_open", "rounds", "decode"} {
						timeouts += reg.PhaseTimeouts(phase).Value()
					}
					if timeouts == 0 {
						t.Error("phase_timeouts_total not incremented")
					}
				})
			}
		}
	})

	checkGoroutines(t, before)
}

// TestClientTimeoutAgainstStalledServer mirrors the matrix from the
// evaluator's side: a garbler that stalls mid-setup costs the client
// one phase budget, not a hung Dial.
func TestClientTimeoutAgainstStalledServer(t *testing.T) {
	srv, _ := faultMatrixServer(t, Timeouts{Handshake: faultBudget, IO: faultBudget})
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithTimeouts(Timeouts{Handshake: faultBudget, IO: faultBudget})
	a, b := wire.Pipe()
	defer b.Close()
	// Stall the server's second send (first OT-setup message after the
	// hello): the client is left waiting mid-Dial.
	fc := faultconn.New(a, faultconn.Options{StallOnSend: 2})
	defer fc.Close()
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.NewSession(fc, SessionConfig{})
		srvDone <- err
	}()

	start := time.Now()
	_, cerr := cli.Dial(b)
	elapsed := time.Since(start)
	if !errors.Is(cerr, ErrPhaseTimeout) {
		t.Fatalf("client Dial error = %v, want ErrPhaseTimeout", cerr)
	}
	if elapsed > 2*faultBudget+2*time.Second {
		t.Fatalf("client Dial took %v against a stalled server", elapsed)
	}
	fc.Close()
	<-srvDone
}

// TestServeContextCancellationInterruptsStalledSession proves the
// shutdown-drain path: with NO timeouts configured at all, cancelling
// the context reclaims a session blocked mid-rounds on a silent peer.
func TestServeContextCancellationInterruptsStalledSession(t *testing.T) {
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
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvDone := make(chan error, 1)
	go func() {
		sess, err := srv.NewSessionContext(ctx, a, SessionConfig{GarbleWorkers: 2})
		if err != nil {
			srvDone <- err
			return
		}
		_, err = sess.ServeContext(ctx, Request{Matrix: [][]int64{{1, 2, 3}}})
		sess.Close() // before the report: the gauges are read on receipt
		srvDone <- err
	}()

	// A client that opens a request, then goes silent without closing:
	// the server is mid-rounds, waiting on OT traffic that never comes.
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	openRequestByHand(t, cs)

	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case serr := <-srvDone:
		if !errors.Is(serr, context.Canceled) {
			t.Fatalf("server error = %v, want context.Canceled in the chain", serr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt the stalled session")
	}
	reg := o.Metrics()
	if got := reg.Gauge("sessions_active", "").Value(); got != 0 {
		t.Errorf("sessions_active = %d after cancellation", got)
	}
}

// TestClientAbortClosesConnPromptly: a client that bails on a request
// header it cannot serve — a vector-length mismatch, a shape this
// generation retired (correlated OT = OTMode 2), or one outside the
// bound checkShape sets — names the problem and closes the connection,
// so the server fails fast instead of stalling until its deadline (or,
// without one, forever).
// The server here has NO timeouts — only the abort-by-close can unblock
// it.
func TestClientAbortClosesConnPromptly(t *testing.T) {
	// announce plays a server that opens the request with a hand-built
	// header (one Request.validate would never let out) and then waits
	// for the peer.
	announce := func(hdr reqHeader) func(*ServerSession) error {
		return func(sess *ServerSession) error {
			if _, err := sess.tc.RecvMsg(); err != nil {
				return err
			}
			if err := sess.tc.SendMsg(appendReqHeader(nil, hdr)); err != nil {
				return err
			}
			_, err := sess.tc.RecvMsg()
			return err
		}
	}
	// The fewest width-8 batched columns whose labels (cols·width, which
	// every row shares) pass the bound one OT frame sets; the client's
	// vector is that long, so the header passes the length check.
	batchedCols := wire.MaxMessageSize/(2*label.Size)/8 + 1
	cases := []struct {
		name    string
		serve   func(*ServerSession) error
		wantErr string
		y       []int64 // the client's vector; nil is {1}
	}{
		{"vector length mismatch", func(sess *ServerSession) error {
			_, err := sess.Serve(Request{Matrix: [][]int64{{1, 2, 3}}})
			return err
		}, "3-element vector", nil},
		{"retired correlated OT", announce(reqHeader{Rows: 1, Cols: 1, OT: 2}), "unknown OT mode 2", nil},
		// Shapes no request could complete: the client refuses them from
		// the header, before allocating a result slot or a choice bit.
		{"zero rows", announce(reqHeader{Rows: 0, Cols: 1}), "0 rows × 1 cols", nil},
		{"2^32-1 rows", announce(reqHeader{Rows: math.MaxUint32, Cols: 1}), "4294967295 rows × 1 cols", nil},
		{"batched labels past the bound", announce(reqHeader{Rows: 1, Cols: batchedCols, OT: OTBatched}), "1 rows × 262145 cols (batched",
			make([]int64, batchedCols)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
				sess, err := srv.NewSession(a, SessionConfig{})
				if err != nil {
					srvDone <- err
					return
				}
				defer sess.Close()
				srvDone <- tc.serve(sess)
			}()
			cs, err := cli.Dial(b)
			if err != nil {
				t.Fatal(err)
			}
			// The client aborts by name; the abort must reach the server.
			y := tc.y
			if y == nil {
				y = []int64{1}
			}
			if _, err := cs.Do(y); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("client error = %v, want one naming %q", err, tc.wantErr)
			}
			if cs.Err() == nil {
				t.Fatal("session not broken after the abort")
			}
			select {
			case serr := <-srvDone:
				if serr == nil {
					t.Fatal("server reported success after client abort")
				}
				if !wire.IsDisconnect(serr) {
					t.Fatalf("server error = %v, want a disconnect from the abort", serr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client abort never reached the server")
			}
		})
	}
}

// TestPoolMetricsFailedRowsAndInlineGauge is the regression test for
// the two pool-metrics bugs: garble_rows_total counted failed rows,
// and garble_workers was never reset by inline (single-worker)
// requests. A one-lane request's rows count like any other lane's.
// The failed rows are injected panics: an out-of-range matrix never
// reaches the lanes (TestServeRefusesOutOfRangeMatrixBeforeAnyFrame).
func TestPoolMetricsFailedRowsAndInlineGauge(t *testing.T) {
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
	reg := o.Metrics()

	// Request 1: every row's garbling panics. Failed rows must not
	// count as garbled.
	garbleTestHook = func(int) { panic("injected garbling fault") }
	defer func() { garbleTestHook = nil }()
	a, b := wire.Pipe()
	srvDone := make(chan error, 1)
	go func() {
		_, err := serveOne(srv, a, SessionConfig{GarbleWorkers: 2}, Request{Matrix: [][]int64{{1, 1}, {2, 2}}})
		srvDone <- err
	}()
	clientDone := make(chan error, 1)
	go func() {
		_, err := clientRun(cli, b, []int64{1, 1})
		clientDone <- err
	}()
	serr := <-srvDone
	garbleTestHook = nil
	if !errors.Is(serr, ErrInternal) {
		t.Fatalf("server error %v, want ErrInternal", serr)
	}
	a.Close()
	b.Close()
	<-clientDone
	if got := reg.Counter("garble_rows_total", "").Value(); got != 0 {
		t.Fatalf("garble_rows_total = %d after an all-failed request, want 0", got)
	}
	if got := reg.Gauge("garble_workers", "").Value(); got != 2 {
		t.Fatalf("garble_workers = %d, want 2", got)
	}

	// Request 2: a healthy pooled request counts exactly its rows.
	good := [][]int64{{1, 2}, {3, 4}, {5, 6}}
	a2, b2 := wire.Pipe()
	defer a2.Close()
	defer b2.Close()
	go func() {
		_, err := serveOne(srv, a2, SessionConfig{GarbleWorkers: 3}, Request{Matrix: good})
		srvDone <- err
	}()
	if _, err := clientRun(cli, b2, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if serr := <-srvDone; serr != nil {
		t.Fatal(serr)
	}
	if got := reg.Counter("garble_rows_total", "").Value(); got != uint64(len(good)) {
		t.Fatalf("garble_rows_total = %d after a healthy request, want %d", got, len(good))
	}
	if got := reg.Gauge("garble_workers", "").Value(); got != 3 {
		t.Fatalf("garble_workers = %d, want 3", got)
	}

	// Request 3: an inline (single-worker) request must reset the pool
	// gauge — it used to keep reading whatever the last pool used.
	a3, b3 := wire.Pipe()
	defer a3.Close()
	defer b3.Close()
	go func() {
		_, err := serveOne(srv, a3, SessionConfig{GarbleWorkers: 1}, Request{Matrix: good})
		srvDone <- err
	}()
	if _, err := clientRun(cli, b3, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if serr := <-srvDone; serr != nil {
		t.Fatal(serr)
	}
	if got := reg.Gauge("garble_workers", "").Value(); got != 1 {
		t.Fatalf("garble_workers = %d after an inline request, want 1", got)
	}
	if got := reg.Counter("garble_rows_total", "").Value(); got != uint64(2*len(good)) {
		t.Fatalf("garble_rows_total = %d after a one-lane request, want %d", got, 2*len(good))
	}
}

// checkGoroutines polls until the goroutine count settles back to the
// baseline (plus scheduler slack), failing on a leak. The repo has no
// external leak detector dependency; before/after counting is the
// zero-dependency equivalent.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// largestRecv records the largest frame received through it.
type largestRecv struct {
	wire.Conn
	max int
}

func (c *largestRecv) RecvMsg() ([]byte, error) {
	msg, err := c.Conn.RecvMsg()
	c.max = max(c.max, len(msg))
	return msg, err
}

func (c *largestRecv) Unwrap() wire.Conn { return c.Conn }

// TestSetupReceiveCap: until the OT set-up is done each endpoint reads
// under wire.SetupFrameLimit, so a length prefix announcing 64 MiB is
// refused by name instead of allocated (the server side of this, slot
// and gauges included, is backend.TestOversizedFirstFrameFreesSessionSlot);
// once a request is open the cap is wire.MaxMessageSize again, and a
// 16x16 b=16 batched request — whose one OT frame alone is far above
// the set-up cap — is served as before.
func TestSetupReceiveCap(t *testing.T) {
	t.Run("client refuses an over-cap first frame", func(t *testing.T) {
		cli, err := NewClient(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p1, p2 := net.Pipe()
		defer p1.Close()
		defer p2.Close()
		go p1.Write([]byte{0x04, 0x00, 0x00, 0x00}) // "a 64 MiB frame follows"
		_, err = cli.Dial(wire.NewStreamConn(p2))
		if err == nil || !strings.Contains(err.Error(), "exceeds limit 8192") {
			t.Fatalf("Dial error = %v, want a refusal naming the 8192-byte set-up cap", err)
		}
	})
	t.Run("large frames pass once a request is open", func(t *testing.T) {
		const n = 16
		srv, err := NewServer(maxsim.Config{Width: 16, AccWidth: 40, Signed: true})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewClient(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		A, y, want := make([][]int64, n), make([]int64, n), make([]int64, n)
		for i := range A {
			A[i] = make([]int64, n)
			y[i] = int64(3*i - 20)
		}
		for i := range A {
			for j := range A[i] {
				A[i][j] = int64(i*j - 100)
				want[i] += A[i][j] * y[j]
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		srvDone := make(chan error, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				srvDone <- err
				return
			}
			defer c.Close()
			_, err = serveOne(srv, wire.NewStreamConn(c), SessionConfig{}, Request{Matrix: A, OT: OTBatched})
			srvDone <- err
		}()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conn := &largestRecv{Conn: wire.NewStreamConn(nc)}
		got, err := clientRun(cli, conn, y)
		if err != nil {
			t.Fatal(err)
		}
		if serr := <-srvDone; serr != nil {
			t.Fatal(serr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
			}
		}
		if conn.max <= wire.SetupFrameLimit {
			t.Fatalf("largest frame received was %d bytes: the request never exceeded the set-up cap", conn.max)
		}
	})
}

// rewriteSend is the hostile-peer fault: the Nth message sent through
// it is replaced by mutate's result; everything else passes untouched.
type rewriteSend struct {
	wire.Conn
	n      int
	mutate func([]byte) []byte
	sends  int
}

func (c *rewriteSend) SendMsg(msg []byte) error {
	if c.sends++; c.sends == c.n {
		msg = c.mutate(append([]byte(nil), msg...))
	}
	return c.Conn.SendMsg(msg)
}

func (c *rewriteSend) SendMsgs(msgs [][]byte) error { return sendEach(c, msgs) }

// Unwrap keeps wire.AsDeadline transparent, so phase budgets still bind.
func (c *rewriteSend) Unwrap() wire.Conn { return c.Conn }

// TestHostileBaseOTPoints: a peer that sends garbage where the base OT
// expects curve points costs the other side an error, promptly — not a
// panic out of the curve arithmetic, not a phase timeout, not a leaked
// session slot or arena buffer. In the handshake each side's second
// message is its base-OT share: the client's is A, the server's is the
// B batch (the garbler is the extension sender, hence base receiver).
func TestHostileBaseOTPoints(t *testing.T) {
	mutations := map[string]func([]byte) []byte{
		"all-zero (identity) encoding": func(m []byte) []byte { return make([]byte, len(m)) },
		"uncompressed prefix":          func(m []byte) []byte { m[0] = 4; return m },
		// x = 1: 1 − 3 + b is not a square mod p, so no point has it.
		"x not on the curve":      func(m []byte) []byte { copy(m[1:33], make([]byte, 32)); m[32] = 1; return m },
		"x above the field prime": func(m []byte) []byte { copy(m[1:33], bytes.Repeat([]byte{0xff}, 32)); return m },
		"truncated":               func(m []byte) []byte { return m[:len(m)-1] },
	}
	to := Timeouts{Handshake: faultBudget, IO: faultBudget}
	for name, mut := range mutations {
		for _, hostile := range []string{"client", "server"} {
			t.Run(hostile+"/"+name, func(t *testing.T) {
				srv, o := faultMatrixServer(t, to)
				cli, err := NewClient(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				cli.WithTimeouts(to)
				a, b := wire.Pipe()
				var srvConn, cliConn wire.Conn = a, b
				if hostile == "client" {
					cliConn = &rewriteSend{Conn: b, n: 2, mutate: mut}
				} else {
					srvConn = &rewriteSend{Conn: a, n: 2, mutate: mut}
				}
				srvDone := make(chan error, 1)
				cliDone := make(chan error, 1)
				start := time.Now()
				go func() {
					_, err := srv.NewSession(srvConn, SessionConfig{})
					srvDone <- err
				}()
				go func() {
					_, err := cli.Dial(cliConn)
					cliDone <- err
				}()
				// The honest side is the one that sees the bad point.
				victim, other := srvDone, cliDone
				if hostile == "server" {
					victim, other = cliDone, srvDone
				}
				verr := <-victim
				elapsed := time.Since(start)
				// The victim has returned; hang up so the hostile side,
				// still waiting for the next OT message, returns too.
				a.Close()
				b.Close()
				<-other
				if verr == nil {
					t.Fatal("handshake succeeded on a corrupt base-OT point")
				}
				if errors.Is(verr, ErrPhaseTimeout) || elapsed >= faultBudget {
					t.Fatalf("rejected only after %v (%v): want an immediate validation error", elapsed, verr)
				}
				if !strings.Contains(verr.Error(), "ot:") {
					t.Fatalf("error does not come from the OT layer's validation: %v", verr)
				}
				if got := o.Metrics().Gauge("sessions_active", "").Value(); got != 0 {
					t.Errorf("sessions_active = %d after the rejected handshake", got)
				}
				if got := srv.ArenaOutstanding(); got != 0 {
					t.Errorf("ArenaOutstanding = %d after the rejected handshake", got)
				}
			})
		}
	}
}

package protocol

// Fault-matrix cases for the streaming serve path. It has moving parts
// the original fault matrix never exercised — garble lane goroutines,
// each with a bounded queue of rounds, and arena-backed frame buffers
// held across vectored writes. Each fault here targets one of those
// parts and asserts the same cloud invariants as the rest of the
// matrix: a deadline-bounded (or immediate) return, every arena buffer
// back in the pool, no session left active, and no goroutine left
// behind.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

// pipelineReq is the canonical pipelined request: several rows through
// the two-worker pool (serveMux) with per-round OT, so material streams
// through the arena while later rows are still garbling.
func pipelineReq() Request {
	return Request{
		Matrix: [][]int64{{1, -2, 3}, {4, 5, -6}, {-7, 8, 9}},
		OT:     OTPerRound,
	}
}

// TestPipelineStallMidChunk: the peer goes silent while garbled rounds
// are queued between the lanes and the wire. The server must time out
// within its phase budget, every lane must unwind, and every arena
// buffer must be back in the pool.
func TestPipelineStallMidChunk(t *testing.T) {
	before := runtime.NumGoroutine()
	req := pipelineReq()
	y := []int64{7, -8, 9}

	// Learning run: count the healthy client's ops and time a baseline,
	// exactly like the main fault matrix.
	srv, _ := faultMatrixServer(t, Timeouts{})
	a, b := wire.Pipe()
	fc := faultconn.New(b, faultconn.Options{})
	clientDone := make(chan error, 1)
	go func() { clientDone <- runFaultClient(fc, y) }()
	serr, healthy := serveMux(srv, a, req)
	if serr != nil {
		t.Fatalf("healthy run: server: %v", serr)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("healthy run: client: %v", cerr)
	}
	a.Close()
	fc.Close()
	sends, _ := fc.Ops()
	if sends < 6 {
		t.Fatalf("healthy run too small: %d client sends", sends)
	}
	budget := 2 * healthy
	if budget < 2*time.Second {
		budget = 2 * time.Second
	}
	to := Timeouts{Handshake: budget, IO: budget}
	maxWait := 4*healthy + 2*budget + 5*time.Second

	// Stall indices inside the rounds stretch: the midpoint and the
	// tail of the client's send sequence, where row 0's per-round OT
	// traffic — interleaved with the server's streamed material — and
	// the result live.
	stalls := map[int]bool{(sends + 1) / 2: true, (2 * sends) / 3: true, sends - 1: true}
	for idx := range stalls {
		idx := idx
		t.Run(fmt.Sprintf("stall_send_%d", idx), func(t *testing.T) {
			t.Parallel()
			srv, o := faultMatrixServer(t, to)
			a, b := wire.Pipe()
			fc := faultconn.New(b, faultconn.Options{StallOnSend: idx})
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

			serr, elapsed := serveMux(srv, a, req)
			if serr == nil {
				t.Fatal("server reported success against a stalled peer")
			}
			if !errors.Is(serr, ErrPhaseTimeout) {
				t.Fatalf("server error = %v, want ErrPhaseTimeout", serr)
			}
			if elapsed > maxWait {
				t.Fatalf("server took %v against a stalled peer (ceiling %v)", elapsed, maxWait)
			}
			if got := srv.ArenaOutstanding(); got != 0 {
				t.Errorf("arena buffers outstanding after timeout: %d", got)
			}
			if got := o.Metrics().Gauge("sessions_active", "").Value(); got != 0 {
				t.Errorf("sessions_active = %d after timeout", got)
			}
		})
	}

	t.Cleanup(func() { checkGoroutines(t, before) })
}

// TestPipelineCutBetweenHeaderAndPayload: the byte stream is cut
// exactly on a write boundary inside the rounds, so a frame's length
// prefix lands intact but its vectored payload write fails. The server
// must fail the request immediately (no deadline needed — the
// transport error is synchronous), free the arena buffer the cut
// write was holding, and unwind the pool.
func TestPipelineCutBetweenHeaderAndPayload(t *testing.T) {
	before := runtime.NumGoroutine()
	req := pipelineReq()
	y := []int64{7, -8, 9}

	run := func(t *testing.T, cut int) (*Server, *faultconn.Stream, error, time.Duration) {
		t.Helper()
		p1, p2 := net.Pipe()
		fs := faultconn.NewStream(p1)
		fs.CutAfterWrite = cut
		sconn := wire.NewStreamConn(fs)
		cconn := wire.NewStreamConn(p2)
		srv, _ := faultMatrixServer(t, Timeouts{})
		done := make(chan error, 1)
		go func() { done <- runFaultClient(cconn, y) }()
		t.Cleanup(func() {
			sconn.Close()
			p2.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("client goroutine not released by harness close")
			}
		})
		serr, elapsed := serveMux(srv, sconn, req)
		if cut == 0 {
			if serr != nil {
				t.Fatalf("healthy run: server: %v", serr)
			}
			cerr := <-done
			done <- cerr // keep the cleanup's drain non-blocking
			if cerr != nil {
				t.Fatalf("healthy run: client: %v", cerr)
			}
		}
		return srv, fs, serr, elapsed
	}

	// Learning run: count the server's writes on a healthy session.
	_, fs, _, _ := run(t, 0)
	msgs := fs.Writes() / 2
	if msgs < 8 {
		t.Fatalf("healthy run too small: %d server messages", msgs)
	}
	// Two adjacent header writes (odd indices) around two-thirds of the
	// way in: deep inside the rounds, past row 0's OT ciphertexts, where
	// the later rows' material frames (vectored) stream, so the cuts
	// land on material frames' header/payload boundaries.
	k := (2 * msgs) / 3
	for _, msg := range []int{k, k + 1} {
		msg := msg
		t.Run(fmt.Sprintf("cut_after_header_%d", msg), func(t *testing.T) {
			srv, _, serr, elapsed := run(t, 2*(msg-1)+1)
			if serr == nil {
				t.Fatal("server reported success across a cut stream")
			}
			if errors.Is(serr, ErrPhaseTimeout) {
				t.Fatalf("synchronous cut surfaced as a timeout: %v", serr)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("server took %v against a cut stream", elapsed)
			}
			if got := srv.ArenaOutstanding(); got != 0 {
				t.Errorf("arena buffers outstanding after cut: %d", got)
			}
		})
	}

	t.Cleanup(func() { checkGoroutines(t, before) })
}

// materialSent is a server conn that reports, by closing entered, the
// first send carrying a material frame, as the send begins; the frames
// still go out in one SendMsgs.
type materialSent struct {
	wire.Conn
	once    sync.Once
	entered chan struct{}
}

func (c *materialSent) SendMsg(m []byte) error { return c.SendMsgs([][]byte{m}) }

func (c *materialSent) SendMsgs(ms [][]byte) error {
	for _, m := range ms {
		if tagOf(m) == tagMaterial {
			c.once.Do(func() { close(c.entered) })
		}
	}
	return c.Conn.SendMsgs(ms)
}

func (c *materialSent) Unwrap() wire.Conn { return c.Conn }

// TestPipelineCancelWhileArenaHoldsBuffers: over a synchronous pipe a
// non-reading peer leaves the server blocked inside a vectored frame
// write — the rounds it carries held by the cork, more queued on the
// lanes. Cancelling the context (no timeouts configured) must interrupt
// the blocked write, return every round to the pool, and unwind the
// lanes and gauges.
func TestPipelineCancelWhileArenaHoldsBuffers(t *testing.T) {
	before := runtime.NumGoroutine()
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
	p1, p2 := net.Pipe()
	sconn := &materialSent{Conn: wire.NewStreamConn(p1), entered: make(chan struct{})}
	cconn := wire.NewStreamConn(p2)
	defer p1.Close()
	defer p2.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvDone := make(chan error, 1)
	go func() {
		sess, err := srv.NewSessionContext(ctx, sconn, SessionConfig{GarbleWorkers: 2})
		if err != nil {
			srvDone <- err
			return
		}
		_, err = sess.ServeContext(ctx, pipelineReq())
		sess.Close() // before the report: the gauges are read on receipt
		srvDone <- err
	}()

	// The client completes setup and opens the request, then goes
	// silent without reading: the server's first material frame blocks
	// mid-write with the rounds it carries held by the cork.
	cs, err := cli.Dial(cconn)
	if err != nil {
		t.Fatal(err)
	}
	openRequestByHand(t, cs)

	// Wait until the server is writing its first material frame, which
	// the silent peer never reads: the write blocks holding the rounds
	// it carries — the precise state the cancellation must clean up.
	select {
	case <-sconn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("server never began writing a material frame")
	}
	if srv.ArenaOutstanding() == 0 {
		t.Fatal("the blocked material write holds no round")
	}
	cancel()

	select {
	case serr := <-srvDone:
		if !errors.Is(serr, context.Canceled) {
			t.Fatalf("server error = %v, want context.Canceled in the chain", serr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt the blocked frame write")
	}
	if got := srv.ArenaOutstanding(); got != 0 {
		t.Errorf("arena buffers outstanding after cancellation: %d", got)
	}
	if got := o.Metrics().Gauge("sessions_active", "").Value(); got != 0 {
		t.Errorf("sessions_active = %d after cancellation", got)
	}
	p1.Close()
	p2.Close()
	checkGoroutines(t, before)
}

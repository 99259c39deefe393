package retry

// Chaos tests: the faultconn harness composed with the retry layer.
// Each scripted dial misbehaves a different way — vanishing peer,
// injected send error, byte-level mid-frame cut, silent stall, BUSY
// rejection, version mismatch — and the invariants are the recovery
// contract: transient faults are survived within the attempt budget
// with the right reason counted, fatal faults are surfaced immediately,
// and no goroutine outlives its test.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
	"maxelerator/internal/wire/faultconn"
)

// dialScript describes how the chaos server behaves on one dial.
// The zero value is a healthy serve.
type dialScript struct {
	// faults are message-level faults injected on the SERVER side of the
	// pipe: a scripted server send-close reaches the client as a genuine
	// disconnect, a server stall as a client phase timeout.
	faults faultconn.Options
	// busy answers the dial with a BUSY frame carrying this hint.
	busy time.Duration
	// helloVersion answers the dial with a hello of this version (the
	// fatal, never-healing fault). Zero disables.
	helloVersion int
	// cutHello serves over a byte stream that cuts the hello frame in
	// half and closes — the mid-frame fault the message layer cannot
	// express.
	cutHello bool
}

// chaosServer hands the ReDialer a scripted server endpoint per dial.
type chaosServer struct {
	t      *testing.T
	srv    *protocol.Server
	req    protocol.Request
	script map[int]dialScript

	mu    sync.Mutex
	dials int
	fcs   []*faultconn.Conn
	conns []interface{ Close() error }
	wg    sync.WaitGroup
}

func newChaosServer(t *testing.T, script map[int]dialScript) *chaosServer {
	t.Helper()
	srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosServer{
		t:      t,
		srv:    srv,
		req:    protocol.Request{Matrix: [][]int64{{1, 2}, {-3, 4}}},
		script: script,
	}
}

// connect is the ReDialer's Connect hook: each call manufactures a
// fresh connection pair with a server goroutine behind it, behaving per
// this dial's script.
func (h *chaosServer) connect() (wire.Conn, error) {
	h.mu.Lock()
	h.dials++
	s := h.script[h.dials]
	h.mu.Unlock()

	switch {
	case s.busy > 0:
		a, b := wire.Pipe()
		h.track(a, b)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer a.Close()
			_ = protocol.SendBusy(a, s.busy)
		}()
		return b, nil
	case s.helloVersion != 0:
		a, b := wire.Pipe()
		h.track(a, b)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			// A hand-built hello, byte for byte (DESIGN.md §8): tag 0x80,
			// u32 version, u16 width 8, u16 accumulator width 24, signed.
			_ = a.SendMsg([]byte{0x80, byte(s.helloVersion), 0, 0, 0, 8, 0, 24, 0, 1})
		}()
		return b, nil
	case s.cutHello:
		// Byte-level fault: the server's very first frame (the hello) is
		// cut mid-body and the stream closed. net.Pipe is synchronous,
		// which is fine here — the client is already blocked reading.
		p1, p2 := net.Pipe()
		st := faultconn.NewStream(p1)
		st.CutWrite = 2 // write 1 is the 4-byte length prefix, 2 the body
		sconn, cconn := wire.NewStreamConn(st), wire.NewStreamConn(p2)
		h.track(sconn, cconn)
		h.serve(sconn)
		return cconn, nil
	default:
		a, b := wire.Pipe()
		fc := faultconn.New(a, s.faults)
		h.mu.Lock()
		h.fcs = append(h.fcs, fc)
		h.mu.Unlock()
		h.track(fc, b)
		h.serve(fc)
		return b, nil
	}
}

// serve runs a full multiplexed server session on conn until the
// client closes it or a fault kills it, then closes conn so a blocked
// client sees a prompt disconnect.
func (h *chaosServer) serve(conn wire.Conn) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer conn.Close()
		sess, err := h.srv.NewSession(conn, protocol.SessionConfig{})
		if err != nil {
			return
		}
		defer sess.Close()
		for {
			if _, err := sess.Serve(h.req); err != nil {
				return
			}
		}
	}()
}

func (h *chaosServer) track(cs ...interface{ Close() error }) {
	h.mu.Lock()
	h.conns = append(h.conns, cs...)
	h.mu.Unlock()
}

// lastOps reports the send/recv counts of the most recent faultconn
// dial — the learning-run hook for sizing fault indices.
func (h *chaosServer) lastOps() (sends, recvs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fcs[len(h.fcs)-1].Ops()
}

// shutdown releases every stalled fault, closes every connection and
// waits the server goroutines out.
func (h *chaosServer) shutdown() {
	h.mu.Lock()
	conns := append([]interface{ Close() error }(nil), h.conns...)
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	done := make(chan struct{})
	go func() { h.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		h.t.Error("chaos server goroutines not released by shutdown")
	}
}

// checkGoroutines polls until the goroutine count settles back to the
// baseline (plus scheduler slack), failing on a leak — the same
// zero-dependency leak check the protocol fault matrix uses.
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

// newTestReDialer wires a ReDialer to the chaos server with fast
// deterministic backoff and a metrics registry.
func newTestReDialer(t *testing.T, h *chaosServer, to protocol.Timeouts) (*ReDialer, *obs.Registry) {
	t.Helper()
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithTimeouts(to)
	rd, err := NewReDialer(cli, h.connect, Policy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		Rand:        mrand.New(mrand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rd.WithObs(reg)
	return rd, reg
}

func wantResult(t *testing.T, out []int64) {
	t.Helper()
	// [[1,2],[-3,4]] · [5,-6] = [-7, -39]
	if len(out) != 2 || out[0] != -7 || out[1] != -39 {
		t.Fatalf("result = %v, want [-7 -39]", out)
	}
}

// TestChaosDisconnectsThenSuccess is the acceptance scenario: the
// connection dies on attempt 1 (during setup) and attempt 2 (mid
// request, after a healthy dial), and attempt 3 completes — with the
// retries counted and the reconnect visible.
func TestChaosDisconnectsThenSuccess(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	// Learning run: a healthy session through a passthrough harness
	// counts the server's sends, so the second fault can land mid
	// request rather than at a hand-guessed index.
	learn := newChaosServer(t, nil)
	rd0, _ := newTestReDialer(t, learn, protocol.Timeouts{})
	out, err := rd0.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("learning run: %v", err)
	}
	wantResult(t, out)
	rd0.Close()
	learn.shutdown()
	sends, _ := learn.lastOps()
	if sends < 3 {
		t.Fatalf("learning run too small to script: %d server sends", sends)
	}

	h := newChaosServer(t, map[int]dialScript{
		// Dial 1: the server vanishes on its very first send — the
		// client's Dial fails with a disconnect.
		1: {faults: faultconn.Options{CloseOnSend: 1}},
		// Dial 2: setup succeeds, then the server vanishes at its final
		// send of the request — Do fails mid-flight.
		2: {faults: faultconn.Options{CloseOnSend: sends}},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{})
	defer rd.Close()

	out, err = rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover: %v", err)
	}
	wantResult(t, out)
	if h.dials != 3 {
		t.Errorf("dials = %d, want 3 (fail, fail, succeed)", h.dials)
	}
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "disconnect")).Value(); got < 2 {
		t.Errorf("retry_attempts_total{disconnect} = %d, want >= 2", got)
	}
	if got := rd.Reconnects(); got != 1 {
		t.Errorf("Reconnects() = %d, want 1 (only dial 2 established a session to lose)", got)
	}
	if got := reg.Counter("reconnects_total", "").Value(); got != 1 {
		t.Errorf("reconnects_total = %d, want 1", got)
	}
}

// TestChaosInjectedSendErrorThenSuccess: a server whose mid-setup send
// fails outright (error-after-N) costs one retry.
func TestChaosInjectedSendErrorThenSuccess(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		1: {faults: faultconn.Options{ErrOnSend: 3}},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{})
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover: %v", err)
	}
	wantResult(t, out)
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "disconnect")).Value(); got != 1 {
		t.Errorf("retry_attempts_total{disconnect} = %d, want 1", got)
	}
}

// TestChaosMidFrameCutThenSuccess: the hello frame is cut in half at
// the byte level — the client holds a partial frame and must classify
// the truncation as a disconnect and re-dial.
func TestChaosMidFrameCutThenSuccess(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{1: {cutHello: true}})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{})
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover from a mid-frame cut: %v", err)
	}
	wantResult(t, out)
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "disconnect")).Value(); got != 1 {
		t.Errorf("retry_attempts_total{disconnect} = %d, want 1", got)
	}
}

// TestChaosStallThenTimeoutRetry: a silently stalled server costs the
// client one phase timeout, classified and retried as such.
func TestChaosStallThenTimeoutRetry(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		// The server's first send (its hello) stalls forever: the
		// client's Dial sits in its handshake phase until the budget
		// expires.
		1: {faults: faultconn.Options{StallOnSend: 1}},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{Handshake: time.Second, IO: 5 * time.Second})
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover from a stalled server: %v", err)
	}
	wantResult(t, out)
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "timeout")).Value(); got != 1 {
		t.Errorf("retry_attempts_total{timeout} = %d, want 1", got)
	}
}

// TestChaosBusyHonored: a BUSY rejection is retried and its RetryAfter
// hint floors the backoff.
func TestChaosBusyHonored(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	const hint = 50 * time.Millisecond
	h := newChaosServer(t, map[int]dialScript{1: {busy: hint}})
	defer h.shutdown()

	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	rd, err := NewReDialer(cli, h.connect, Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
		Rand:        mrand.New(mrand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rd.WithObs(reg)
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover from a BUSY rejection: %v", err)
	}
	wantResult(t, out)
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "busy")).Value(); got != 1 {
		t.Errorf("retry_attempts_total{busy} = %d, want 1", got)
	}
	if len(sleeps) != 1 || sleeps[0] < hint {
		t.Errorf("backoff sleeps = %v, want one sleep >= the server's %v hint", sleeps, hint)
	}
}

// TestChaosVersionMismatchFatal: a version mismatch must fail on the
// first attempt — retrying a protocol-generation gap can never help.
func TestChaosVersionMismatchFatal(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		1: {helloVersion: 99},
		2: {helloVersion: 99},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{})
	defer rd.Close()

	_, err := rd.Do([]int64{5, -6})
	if !errors.Is(err, protocol.ErrVersionMismatch) {
		t.Fatalf("Do error = %v, want ErrVersionMismatch", err)
	}
	if h.dials != 1 {
		t.Errorf("dials = %d, want 1 (fatal errors are not retried)", h.dials)
	}
	var total uint64
	for _, reason := range []string{"busy", "timeout", "disconnect", "internal", "other"} {
		total += reg.Counter("retry_attempts_total", "", obs.L("reason", reason)).Value()
	}
	if total != 0 {
		t.Errorf("retry_attempts_total = %d for a fatal error, want 0", total)
	}
}

// TestChaosAttemptBudgetExhausted: a server that dies on every dial
// exhausts the budget and surfaces the final cause, with the budget
// named in the error.
func TestChaosAttemptBudgetExhausted(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		1: {faults: faultconn.Options{CloseOnSend: 1}},
		2: {faults: faultconn.Options{CloseOnSend: 1}},
		3: {faults: faultconn.Options{CloseOnSend: 1}},
	})
	defer h.shutdown()

	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReDialer(cli, h.connect, Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		Rand:        mrand.New(mrand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	_, derr := rd.Do([]int64{5, -6})
	if derr == nil {
		t.Fatal("Do succeeded against a server that always dies")
	}
	if !wire.IsDisconnect(derr) {
		t.Errorf("exhausted error = %v, want the disconnect cause preserved", derr)
	}
	if want := fmt.Sprintf("%d attempts exhausted", 3); !contains(derr.Error(), want) {
		t.Errorf("exhausted error %q does not name the budget", derr)
	}
	if h.dials != 3 {
		t.Errorf("dials = %d, want 3", h.dials)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}

// TestChaosFlakyLinkHealedByRetry: the seeded per-op loss mode —
// attempts 1 and 2 ride a link where ~a third of all server-side ops
// fail at random (deterministic under the seed), attempt 3 is clean.
// The retry taxonomy must classify every injected loss as retryable
// and land the request.
func TestChaosFlakyLinkHealedByRetry(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		1: {faults: faultconn.Flaky(11, 0.35)},
		2: {faults: faultconn.Flaky(12, 0.35)},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{Handshake: 2 * time.Second, IO: 2 * time.Second})
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover from a flaky link: %v", err)
	}
	wantResult(t, out)
	var retries uint64
	for _, reason := range []string{"disconnect", "timeout", "internal"} {
		retries += reg.Counter("retry_attempts_total", "", obs.L("reason", reason)).Value()
	}
	if retries == 0 {
		t.Error("flaky attempts produced no counted retries — the fault never fired")
	}
}

// TestChaosMutePeerFirstReadStall: StallFirstRead is the
// accepted-but-mute peer — the server comes up, speaks its hello, and
// then its first read never completes, so the client's OT setup wedges
// until the phase budget expires and the retry layer re-dials.
func TestChaosMutePeerFirstReadStall(t *testing.T) {
	before := runtime.NumGoroutine()
	defer checkGoroutines(t, before)

	h := newChaosServer(t, map[int]dialScript{
		1: {faults: faultconn.Options{StallFirstRead: true}},
	})
	defer h.shutdown()
	rd, reg := newTestReDialer(t, h, protocol.Timeouts{Handshake: time.Second, IO: 5 * time.Second})
	defer rd.Close()

	out, err := rd.Do([]int64{5, -6})
	if err != nil {
		t.Fatalf("Do did not recover from a mute peer: %v", err)
	}
	wantResult(t, out)
	if got := reg.Counter("retry_attempts_total", "", obs.L("reason", "timeout")).Value(); got != 1 {
		t.Errorf("retry_attempts_total{timeout} = %d, want 1", got)
	}
}

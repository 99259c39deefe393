package protocol

// Recovery-surface tests: the BUSY load-shedding frame and the named
// session-closed error — the wire- and API-level contracts the retry
// layer classifies against.

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/wire"
)

// TestDialBusyFrame: a server that answers the connection with a BUSY
// frame yields a typed BusyError carrying the retry-after hint, and
// the error classifies as ErrServerBusy.
func TestDialBusyFrame(t *testing.T) {
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	const hint = 1500 * time.Millisecond
	go func() {
		_ = SendBusy(a, hint)
		a.Close()
	}()

	_, derr := cli.Dial(b)
	if derr == nil {
		t.Fatal("Dial succeeded against a BUSY rejection")
	}
	if !errors.Is(derr, ErrServerBusy) {
		t.Fatalf("Dial error = %v, want ErrServerBusy", derr)
	}
	var be *BusyError
	if !errors.As(derr, &be) {
		t.Fatalf("Dial error = %T, want *BusyError", derr)
	}
	if be.RetryAfter != hint {
		t.Errorf("RetryAfter = %v, want %v", be.RetryAfter, hint)
	}
}

// TestDialBusyProbeDoesNotMisfire: a genuine hello must never be
// mistaken for a busy frame.
func TestDialBusyProbeDoesNotMisfire(t *testing.T) {
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
		_, err = sess.Serve(Request{Matrix: [][]int64{{1, 2}}})
		if errors.Is(err, ErrSessionEnded) {
			err = nil
		}
		srvDone <- err
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatalf("Dial through the busy probe failed: %v", err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if serr := <-srvDone; serr != nil {
		t.Fatal(serr)
	}
}

// TestDoAfterCloseReturnsErrSessionClosed: the closed-session error is
// a named sentinel, and Close is idempotent.
func TestDoAfterCloseReturnsErrSessionClosed(t *testing.T) {
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
		_, serr := sess.Serve(Request{Matrix: [][]int64{{1, 2}}})
		srvDone <- serr
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
	if _, err := cs.Do([]int64{1, 2}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Do after Close = %v, want ErrSessionClosed", err)
	}
	if serr := <-srvDone; !errors.Is(serr, ErrSessionEnded) {
		t.Fatalf("server saw %v, want ErrSessionEnded", serr)
	}
}

// TestDoOnBrokenSessionNamesErrSessionClosed: after a mid-request
// failure the session refuses further requests with the same named
// sentinel (wrapping the original cause), and Err exposes the cause.
func TestDoOnBrokenSessionNamesErrSessionClosed(t *testing.T) {
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
		_, serr := serveOne(srv, a, SessionConfig{}, Request{Matrix: [][]int64{{1, 2, 3}}})
		srvDone <- serr
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	// A mismatched vector breaks the session (the client aborts by
	// closing — see ClientSession.fail).
	if _, err := cs.Do([]int64{1}); err == nil {
		t.Fatal("mismatched vector accepted")
	}
	if cs.Err() == nil {
		t.Fatal("Err() = nil on a broken session")
	}
	if _, err := cs.Do([]int64{1, 2, 3}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Do on broken session = %v, want ErrSessionClosed", err)
	}
	<-srvDone
}

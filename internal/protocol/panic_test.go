package protocol

// Panic containment: a panic inside one garble lane (or the serving
// path generally) must cost exactly that request — the client receives
// an explicit error frame, the server logs the stack and counts the
// recovery, no lane is left behind, and the server value keeps serving
// fresh sessions.

import (
	"crypto/rand"
	"errors"
	"runtime"
	"testing"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
)

// TestWorkerPanicIsolatedToRequest: one row of a two-lane request
// panics while the other lane garbles normally, either before the row
// starts or after its round 0 is already queued. Row 1 is lane 1's;
// row 0 is lane 0's, whose queue the session goroutine reads first.
func TestWorkerPanicIsolatedToRequest(t *testing.T) {
	panicBefore := func(panicRow int) func() {
		return func() {
			garbleTestHook = func(row int) {
				if row == panicRow {
					panic("injected garbling panic")
				}
			}
		}
	}
	panicAfterRound0 := func(panicRow int) func() {
		return func() {
			garbleRoundTestHook = func(row, round int) {
				if row == panicRow && round == 0 {
					panic("injected garbling panic")
				}
			}
		}
	}
	cases := []struct {
		name  string
		setup func() // installs the panicking hook
	}{
		{"row", panicBefore(1)},
		{"round", panicAfterRound0(1)},
		{"lane0_row", panicBefore(0)},
		{"lane0_round", panicAfterRound0(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
			clearHooks := func() { garbleTestHook, garbleRoundTestHook = nil, nil }
			tc.setup()
			defer clearHooks()

			req := Request{Matrix: [][]int64{{1, 2}, {3, 4}}}
			cfg := SessionConfig{GarbleWorkers: 2}
			a, b := wire.Pipe()
			defer a.Close()
			defer b.Close()
			srvDone := make(chan error, 1)
			go func() {
				sess, err := srv.NewSession(a, cfg)
				if err != nil {
					srvDone <- err
					return
				}
				_, err = sess.Serve(req)
				sess.Close() // before the report: the gauges are read on receipt
				srvDone <- err
			}()

			cs, err := cli.Dial(b)
			if err != nil {
				t.Fatal(err)
			}
			_, derr := cs.Do([]int64{5, 6})
			if derr == nil {
				t.Fatal("request succeeded despite a panicking garble lane")
			}
			// The failure must arrive as the explicit internal-error frame,
			// not a timeout or a decode error — the client learns the
			// server broke, without the panic detail crossing the wire.
			if !errors.Is(derr, ErrInternal) {
				t.Fatalf("client error = %v, want ErrInternal", derr)
			}
			if contains := "injected garbling panic"; errContains(derr, contains) {
				t.Errorf("client error %q leaks the server-side panic detail", derr)
			}
			serr := <-srvDone
			if !errors.Is(serr, ErrInternal) {
				t.Fatalf("server error = %v, want ErrInternal", serr)
			}

			reg := o.Metrics()
			if got := reg.Counter("panics_recovered_total", "").Value(); got != 1 {
				t.Errorf("panics_recovered_total = %d, want 1", got)
			}
			if got := reg.Gauge("sessions_active", "").Value(); got != 0 {
				t.Errorf("sessions_active = %d after recovered panic, want 0", got)
			}

			// The same server value must keep serving: a fresh session
			// (hooks cleared) completes normally — the daemon stayed up.
			clearHooks()
			a2, b2 := wire.Pipe()
			defer a2.Close()
			defer b2.Close()
			go func() {
				_, err := serveOne(srv, a2, cfg, req)
				srvDone <- err
			}()
			out, err := clientRun(cli, b2, []int64{5, 6})
			if err != nil {
				t.Fatalf("server unusable after a recovered panic: %v", err)
			}
			if serr := <-srvDone; serr != nil {
				t.Fatalf("server error on recovery session: %v", serr)
			}
			// [[1,2],[3,4]] · [5,6] = [17, 39]
			if len(out) != 2 || out[0] != 17 || out[1] != 39 {
				t.Fatalf("recovery session result = %v, want [17 39]", out)
			}

			checkGoroutines(t, before)
		})
	}
}

// TestInlinePanicIsolated covers the one-lane garbling path: the panic
// unwinds the request's only lane goroutine and is caught by that
// lane's own recover.
func TestInlinePanicIsolated(t *testing.T) {
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
	garbleTestHook = func(row int) { panic("inline garbling panic") }
	defer func() { garbleTestHook = nil }()

	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	srvDone := make(chan error, 1)
	go func() {
		_, err := serveOne(srv, a, SessionConfig{GarbleWorkers: 1}, Request{Matrix: [][]int64{{1, 2}}})
		srvDone <- err
	}()
	_, derr := clientRun(cli, b, []int64{5, 6})
	if !errors.Is(derr, ErrInternal) {
		t.Fatalf("client error = %v, want ErrInternal", derr)
	}
	if serr := <-srvDone; !errors.Is(serr, ErrInternal) {
		t.Fatalf("server error = %v, want ErrInternal", serr)
	}
	if got := o.Metrics().Counter("panics_recovered_total", "").Value(); got != 1 {
		t.Errorf("panics_recovered_total = %d, want 1", got)
	}
}

// errContains reports whether the error text includes sub — used to
// assert panic details do NOT leak to the peer.
func errContains(err error, sub string) bool {
	if err == nil {
		return false
	}
	s := err.Error()
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

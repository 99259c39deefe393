package protocol

import (
	"crypto/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

func TestShapeHintKeyMatchesPrecomputeShape(t *testing.T) {
	h := ShapeHint{Rows: 4, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "batched"}
	want := precompute.Shape{Rows: 4, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "batched"}.String()
	if h.Key() != want {
		t.Fatalf("hint key %q, precompute shape %q", h.Key(), want)
	}
	// Unsigned renders with the "u" sign marker.
	u := ShapeHint{Rows: 1, Cols: 2, Width: 16, Mode: "matvec", OT: "per-round"}
	if !strings.Contains(u.Key(), "/b16u/") {
		t.Fatalf("unsigned key %q missing u marker", u.Key())
	}
}

// sentFrame returns the one frame send puts on a connection, the way a
// gateway sees a peeked first frame.
func sentFrame(t *testing.T, send func(wire.Conn) error) []byte {
	t.Helper()
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	if err := send(a); err != nil {
		t.Fatal(err)
	}
	frame, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestPeekShapeHintClassifiesFrames(t *testing.T) {
	h := ShapeHint{Rows: 2, Cols: 5, Width: 8, Mode: "matvec", OT: "per-round"}
	frame := sentFrame(t, func(c wire.Conn) error { return SendShapeHint(c, h) })
	got, ok := PeekShapeHint(frame)
	if !ok {
		t.Fatal("genuine hint not recognized")
	}
	if got != h {
		t.Fatalf("hint round-trip: got %+v, want %+v", got, h)
	}
	// Every other first frame must peek false: the gateway forwards
	// frames it cannot classify untouched.
	others := oneOfEach(t)
	delete(others, "shape hint")
	others["v3 gob hint"] = v3GobHint
	others["garbage"] = []byte{0xff, 0x01}
	others["hint with a trailing byte"] = append(frame[:len(frame):len(frame)], 0)
	for name, f := range others {
		if _, ok := PeekShapeHint(f); ok {
			t.Fatalf("%s frame misclassified as shape hint", name)
		}
	}
}

func TestPeekBusyClassifiesFrames(t *testing.T) {
	frame := sentFrame(t, func(c wire.Conn) error { return SendBusy(c, 75*time.Millisecond) })
	be, ok := PeekBusy(frame)
	if !ok {
		t.Fatal("busy frame not recognized")
	}
	if be.RetryAfter != 75*time.Millisecond {
		t.Fatalf("RetryAfter = %v", be.RetryAfter)
	}
	others := oneOfEach(t)
	delete(others, "busy")
	others["v3 gob busy"] = v3GobBusy
	for name, f := range others {
		if _, ok := PeekBusy(f); ok {
			t.Fatalf("%s frame misclassified as busy", name)
		}
	}
}

// TestHintedClientAgainstDirectServer pins the compatibility contract:
// a client configured with a shape hint must interoperate with a
// directly-dialed server (no gateway consuming the preface) — the
// server skips the hint frame while reading the handshake ack.
func TestHintedClientAgainstDirectServer(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithShapeHint(ShapeHint{Rows: 2, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"})
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	A := [][]int64{{1, 2, 3}, {-4, 5, -6}}
	y := []int64{7, -8, 9}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = serveOne(srv, a, SessionConfig{}, Request{Matrix: A})
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cs.Do(y)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	for i, row := range A {
		var want int64
		for j, v := range row {
			want += v * y[j]
		}
		if out[i] != want {
			t.Fatalf("row %d = %d, want %d", i, out[i], want)
		}
	}
}

// TestConfigureAfterServePanics pins the configure-before-serve
// contract: the With* setters mutate state sessions read
// unsynchronized, so calling one after the first session is a bug the
// server reports loudly instead of racing silently.
func TestConfigureAfterServePanics(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	b.Close() // fail the session fast; serving at all is what flips the latch
	if _, err := srv.NewSession(a, SessionConfig{}); err == nil {
		t.Fatal("serve on closed pipe succeeded")
	}
	for name, call := range map[string]func(){
		"WithObs":        func() { srv.WithObs(nil) },
		"WithTimeouts":   func() { srv.WithTimeouts(Timeouts{}) },
		"WithPrecompute": func() { srv.WithPrecompute(nil) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s after serve did not panic", name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, name) {
					t.Fatalf("%s panic message %v does not name the method", name, r)
				}
			}()
			call()
		}()
	}
}

// TestConfigureBeforeServeAllowed pins the happy path: the full option
// chain stays legal any time before the first session.
func TestConfigureBeforeServeAllowed(t *testing.T) {
	srv, err := NewServer(maxsim.Config{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithTimeouts(Timeouts{Handshake: time.Second, IO: time.Second}).
		WithPrecompute(nil).
		WithObs(nil)
}

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

// captureFrame sends v as a gob frame over a pipe and returns the raw
// bytes, the way a gateway sees a peeked first frame.
func captureFrame(t *testing.T, v any) []byte {
	t.Helper()
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- sendGob(a, v) }()
	frame, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return frame
}

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

func TestPeekShapeHintClassifiesFrames(t *testing.T) {
	h := ShapeHint{Rows: 2, Cols: 5, Width: 8, Mode: "matvec", OT: "per-round"}
	frame := captureFrame(t, msgShapeHint{Hint: true, Rows: 2, Cols: 5, Width: 8, Mode: "matvec", OT: "per-round"})
	got, ok := PeekShapeHint(frame)
	if !ok {
		t.Fatal("genuine hint not recognized")
	}
	if got != h {
		t.Fatalf("hint round-trip: got %+v, want %+v", got, h)
	}
	// Every other first-frame shape must probe false: the gateway peeks
	// frames it cannot classify and forwards them untouched.
	for name, v := range map[string]any{
		"helloAck": helloAck{ProtoVersion: ProtoVersion},
		"hello":    hello{ProtoVersion: ProtoVersion, Width: 8, Scheme: "half-gates"},
		"busy":     msgBusy{Busy: true, RetryAfterMillis: 50},
	} {
		if _, ok := PeekShapeHint(captureFrame(t, v)); ok {
			t.Fatalf("%s frame misclassified as shape hint", name)
		}
	}
	if _, ok := PeekShapeHint([]byte{0xff, 0x01}); ok {
		t.Fatal("garbage classified as shape hint")
	}
}

func TestPeekBusyClassifiesFrames(t *testing.T) {
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- SendBusy(a, 75*time.Millisecond) }()
	frame, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	be, ok := PeekBusy(frame)
	if !ok {
		t.Fatal("busy frame not recognized")
	}
	if be.RetryAfter != 75*time.Millisecond {
		t.Fatalf("RetryAfter = %v", be.RetryAfter)
	}
	if _, ok := PeekBusy(captureFrame(t, hello{ProtoVersion: ProtoVersion})); ok {
		t.Fatal("hello frame misclassified as busy")
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
		_, srvErr = srv.Serve(a, Request{Matrix: A})
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
	if _, err := srv.Serve(a, Request{Matrix: [][]int64{{1}}}); err == nil {
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

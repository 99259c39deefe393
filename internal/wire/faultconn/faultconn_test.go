package faultconn

import (
	"errors"
	"net"
	"testing"
	"time"

	"maxelerator/internal/wire"
)

func TestPassThroughWithoutFaults(t *testing.T) {
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	fc := New(a, Options{})
	if err := fc.SendMsg([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.RecvMsg()
	if err != nil || string(msg) != "hello" {
		t.Fatalf("recv = %q, %v", msg, err)
	}
	if err := b.SendMsg([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if msg, err := fc.RecvMsg(); err != nil || string(msg) != "back" {
		t.Fatalf("recv = %q, %v", msg, err)
	}
	if s, r := fc.Ops(); s != 1 || r != 1 {
		t.Fatalf("ops = %d sends %d recvs", s, r)
	}
}

func TestStallReleasedByClose(t *testing.T) {
	a, b := wire.Pipe()
	defer b.Close()
	fc := New(a, Options{StallOnSend: 2})
	if err := fc.SendMsg([]byte("first")); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- fc.SendMsg([]byte("second")) }()
	select {
	case err := <-errc:
		t.Fatalf("stalled send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("released stall error = %v, want ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not release the stalled send")
	}
	// Send 1 was delivered; the stalled send 2 never reached the peer.
	if msg, err := b.RecvMsg(); err != nil || string(msg) != "first" {
		t.Fatalf("peer drain = %q, %v", msg, err)
	}
	if msg, err := b.RecvMsg(); err == nil {
		t.Fatalf("stalled message leaked to the peer: %q", msg)
	}
}

func TestErrAndCloseTriggers(t *testing.T) {
	a, b := wire.Pipe()
	defer b.Close()
	fc := New(a, Options{ErrOnSend: 1, CloseOnRecv: 1})
	if err := fc.SendMsg([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("send 1 = %v, want ErrInjected", err)
	}
	// The injected error did not touch the wire: send 2 goes through.
	if err := fc.SendMsg([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RecvMsg(); !errors.Is(err, ErrInjected) {
		t.Fatalf("recv 1 = %v, want ErrInjected", err)
	}
	// CloseOnRecv tore the connection down for the peer too: after
	// draining the message that preceded the fault, the peer sees a
	// disconnect.
	if msg, err := b.RecvMsg(); err != nil || string(msg) != "y" {
		t.Fatalf("peer drain = %q, %v", msg, err)
	}
	if _, err := b.RecvMsg(); !wire.IsDisconnect(err) {
		t.Fatalf("peer after injected close = %v, want disconnect", err)
	}
}

func TestDelayIsDeterministic(t *testing.T) {
	elapsed := func(seed int64) time.Duration {
		a, b := wire.Pipe()
		defer a.Close()
		defer b.Close()
		fc := New(a, Options{Seed: seed, SendDelay: time.Millisecond, Jitter: 20 * time.Millisecond})
		start := time.Now()
		if err := fc.SendMsg([]byte("x")); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	d1, d2 := elapsed(7), elapsed(7)
	// Same seed, same jitter draw; allow generous scheduling noise but
	// require the base+jitter floor.
	if d1 < time.Millisecond || d2 < time.Millisecond {
		t.Fatalf("delays below the base latency: %s, %s", d1, d2)
	}
	diff := d1 - d2
	if diff < 0 {
		diff = -diff
	}
	if diff > 15*time.Millisecond {
		t.Fatalf("same-seed delays diverge: %s vs %s", d1, d2)
	}
}

func TestStreamCorruptLengthPrefix(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	// Write 1 is the first frame's 4-byte length prefix.
	fs := NewStream(client)
	fs.CorruptWrite = 1
	faulty := wire.NewStreamConn(fs)
	errc := make(chan error, 1)
	go func() { errc <- faulty.SendMsg([]byte("payload")) }()
	sc := wire.NewStreamConn(server)
	_, err := sc.RecvMsg()
	if err == nil {
		t.Fatal("corrupt length prefix accepted")
	}
	if wire.IsDisconnect(err) || wire.IsTimeout(err) {
		t.Fatalf("hostile prefix misclassified: %v", err)
	}
	server.Close()
	<-errc
}

func TestStreamCutAfterWrite(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	// Cut after write 1: the first frame's length prefix lands intact,
	// the payload never follows.
	fs := NewStream(client)
	fs.CutAfterWrite = 1
	faulty := wire.NewStreamConn(fs)
	errc := make(chan error, 1)
	go func() { errc <- faulty.SendMsg([]byte("payload")) }()
	sc := wire.NewStreamConn(server)
	if _, err := sc.RecvMsg(); !wire.IsDisconnect(err) {
		t.Fatalf("header-only frame = %v, want disconnect classification", err)
	}
	// The header write itself succeeded; the sender fails on the body.
	if serr := <-errc; serr == nil {
		t.Fatal("sender reported success across the cut")
	}
	if got := fs.Writes(); got != 2 {
		t.Fatalf("writes = %d, want 2 (header forwarded, body refused)", got)
	}
}

func TestStreamCutMidFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	// Write 2 is the first frame's body: forward half, then cut.
	fs := NewStream(client)
	fs.CutWrite = 2
	faulty := wire.NewStreamConn(fs)
	errc := make(chan error, 1)
	go func() { errc <- faulty.SendMsg([]byte("0123456789abcdef")) }()
	sc := wire.NewStreamConn(server)
	_, err := sc.RecvMsg()
	if err == nil {
		t.Fatal("partial frame accepted")
	}
	if !wire.IsDisconnect(err) {
		t.Fatalf("mid-frame cut = %v, want disconnect classification", err)
	}
	if serr := <-errc; !errors.Is(serr, ErrInjected) {
		t.Fatalf("cut sender error = %v, want ErrInjected", serr)
	}
}

// TestFlakyIsSeededAndProportional: the per-op loss mode fails roughly
// p of the ops, reproducibly for a given seed, and never touches the
// wire on a faulted op.
func TestFlakyIsSeededAndProportional(t *testing.T) {
	run := func(seed int64) (failed []int) {
		a, b := wire.Pipe()
		defer a.Close()
		defer b.Close()
		go func() { // drain whatever gets through
			for {
				if _, err := b.RecvMsg(); err != nil {
					return
				}
			}
		}()
		fc := New(a, Flaky(seed, 0.3))
		for i := 0; i < 200; i++ {
			if err := fc.SendMsg([]byte("m")); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("op %d: %v, want ErrInjected", i, err)
				}
				failed = append(failed, i)
			}
		}
		return failed
	}
	first := run(7)
	if n := len(first); n < 30 || n > 90 {
		t.Fatalf("p=0.3 failed %d/200 ops — not plausibly proportional", n)
	}
	second := run(7)
	if len(first) != len(second) {
		t.Fatalf("same seed, different outcomes: %d vs %d failures", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, different failure indices at %d: %d vs %d", i, first[i], second[i])
		}
	}
	third := run(8)
	different := len(third) != len(first)
	for i := 0; !different && i < len(first); i++ {
		different = first[i] != third[i]
	}
	if !different {
		t.Fatal("different seeds produced identical failure patterns")
	}
}

// TestStallFirstRead: the accepted-but-mute peer — the very first
// receive blocks until close, later reads are clean.
func TestStallFirstRead(t *testing.T) {
	a, b := wire.Pipe()
	defer b.Close()
	fc := New(a, Options{StallFirstRead: true})
	if err := b.SendMsg([]byte("waiting")); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := fc.RecvMsg()
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("first read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("released first-read stall = %v, want ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not release the stalled first read")
	}
}

package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"net"
	"testing"
	"time"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// transcriptConn hashes every byte a client reads and writes.
type transcriptConn struct {
	net.Conn
	read, written hash.Hash
}

func newTranscriptConn(c net.Conn) *transcriptConn {
	return &transcriptConn{Conn: c, read: sha256.New(), written: sha256.New()}
}

func (c *transcriptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

func (c *transcriptConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Write(p[:n])
	return n, err
}

func (c *transcriptConn) digests() (read, written string) {
	return hex.EncodeToString(c.read.Sum(nil)), hex.EncodeToString(c.written.Sum(nil))
}

// seed makes fb's next session deterministic: its server draws from a
// DRBG under a fixed key.
func (fb *fakeBackend) seed(t *testing.T) {
	t.Helper()
	drbg, err := label.NewDRBG([16]byte{41})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: drbg})
	if err != nil {
		t.Fatal(err)
	}
	fb.mu.Lock()
	fb.srv = srv
	fb.mu.Unlock()
}

// seededSession runs one hinted request from a seeded client over nc and
// returns the digests of the bytes the client read and wrote.
func seededSession(t *testing.T, nc net.Conn) (read, written string) {
	t.Helper()
	drbg, err := label.NewDRBG([16]byte{42})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := protocol.NewClient(drbg)
	if err != nil {
		t.Fatal(err)
	}
	cli.WithShapeHint(testHint)
	tc := newTranscriptConn(nc)
	defer tc.Close()
	cs, err := cli.Dial(wire.NewStreamConn(tc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cs.Do([]int64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantResult(t, out)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return tc.digests()
}

// TestRelayedTranscriptMatchesDirect: after commit the gateway copies
// bytes, so a seeded hinted session through it reads and writes exactly
// the bytes the same seeded session dialed straight to the backend does
// (the backend skips the hint the gateway forwards).
func TestRelayedTranscriptMatchesDirect(t *testing.T) {
	direct := newFakeBackend(t, "direct")
	direct.seed(t)
	nc, err := net.Dial("tcp", direct.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wantRead, wantWritten := seededSession(t, nc)

	f := newFleet(t, 1, nil)
	f.backends["backend-0"].seed(t)
	gotRead, gotWritten := seededSession(t, f.dial(t))
	if gotRead != wantRead {
		t.Fatalf("relayed client read digest %s, direct %s", gotRead, wantRead)
	}
	if gotWritten != wantWritten {
		t.Fatalf("relayed client write digest %s, direct %s", gotWritten, wantWritten)
	}
}

// TestRelayForwardsBytesAfterPreface: a client that writes its hint
// frame and more bytes in one Write has all of them arrive at the
// backend verbatim. The peek reads exactly one frame, so whatever
// follows it is still in the socket for the relay's copy; a peek that
// read ahead would lose these bytes.
func TestRelayForwardsBytesAfterPreface(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer c.Close()
		// Any first frame but BUSY commits the session.
		wire.NewStreamConn(c).SendMsg([]byte("hello"))
		b, _ := io.ReadAll(c)
		received <- b
	}()
	gw, err := New(Config{Backends: []Backend{{Addr: ln.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	addr := serveGateway(t, gw)

	var sent bytes.Buffer
	if err := protocol.SendShapeHint(wire.NewStreamConn(&sent), testHint); err != nil {
		t.Fatal(err)
	}
	sent.WriteString("\x00\x00\x00\x05trailing bytes of the next frame, and then some")
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(sent.Bytes()); err != nil {
		t.Fatal(err)
	}
	first, err := wire.NewStreamConn(nc).RecvMsg()
	if err != nil || string(first) != "hello" {
		t.Fatalf("client's first frame %q, %v; want the backend's hello", first, err)
	}
	nc.(*net.TCPConn).CloseWrite()
	select {
	case got := <-received:
		if !bytes.Equal(got, sent.Bytes()) {
			t.Fatalf("backend received %q, want %q", got, sent.Bytes())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backend never saw the client hang up")
	}
}

// TestRelayForwardsBytesAfterBackendFirstFrame is the backend's side of
// TestRelayForwardsBytesAfterPreface: a backend that writes its first
// frame and more bytes in one Write has all of them reach the client
// verbatim. connect reads exactly the first frame, so what follows it is
// still in the socket for the relay's copy.
func TestRelayForwardsBytesAfterBackendFirstFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sent bytes.Buffer
	// Any first frame but BUSY commits the session.
	if err := wire.NewStreamConn(&sent).SendMsg([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	sent.WriteString("\x00\x00\x00\x05trailing bytes of the next frame, and then some")
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(sent.Bytes())
		io.Copy(io.Discard, c) // until the gateway closes its side
	}()
	gw, err := New(Config{Backends: []Backend{{Addr: ln.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	addr := serveGateway(t, gw)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := protocol.SendShapeHint(wire.NewStreamConn(nc), testHint); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, sent.Len())
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("client read %q before %v; want everything the backend wrote", got, err)
	}
	if !bytes.Equal(got, sent.Bytes()) {
		t.Fatalf("client received %q, want %q", got, sent.Bytes())
	}
}

// TestRelayOversizedFrameRefusedByBackend: the gateway parses nothing
// after commit, so a client's 64 MiB length prefix right after the
// hello reaches the backend, whose set-up cap refuses it before drawing
// a body. The session unwinds everywhere: no arena buffer is left out
// and no session counts as active on the gateway.
func TestRelayOversizedFrameRefusedByBackend(t *testing.T) {
	f := newFleet(t, 1, nil)
	nc := f.dial(t)
	defer nc.Close()
	conn := wire.NewStreamConn(nc)
	if err := protocol.SendShapeHint(conn, testHint); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.RecvMsg(); err != nil {
		t.Fatalf("reading the relayed hello: %v", err)
	}
	if _, err := nc.Write([]byte{0x04, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, nc); err != nil {
		t.Fatalf("the session did not end after an over-cap frame: %v", err)
	}
	f.drain()
	if n := f.backends["backend-0"].srv.ArenaOutstanding(); n != 0 {
		t.Fatalf("backend arena has %d buffers out after refusing the frame", n)
	}
	if !f.gw.Drain(5 * time.Second) {
		t.Fatal("the relayed session did not unwind after the backend refused the frame")
	}
	if n := f.obs.Metrics().Gauge("gw_sessions_active", "").Value(); n != 0 {
		t.Fatalf("gw_sessions_active = %d after the backend refused the frame", n)
	}
}

// heldListener accepts one connection, then fails.
type heldListener struct{ conn net.Conn }

func (l *heldListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, errors.New("listener closed")
}

func (l *heldListener) Close() error   { return nil }
func (l *heldListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestDrainSeesSessionAcceptedBeforeServeReturns: a connection Serve
// accepted just before its listener failed is counted by the time
// Serve returns, so the shutdown sequence (close the listener, wait for
// Serve, Drain) cannot report an empty gateway while that session is
// about to relay.
func TestDrainSeesSessionAcceptedBeforeServeReturns(t *testing.T) {
	f := newFleet(t, 1, nil)
	gwSide, cliSide := net.Pipe()
	defer cliSide.Close()
	if err := f.gw.Serve(&heldListener{conn: gwSide}); err == nil {
		t.Fatal("Serve returned no error from a failed Accept")
	}
	if f.gw.Drain(20 * time.Millisecond) {
		t.Fatal("Drain reported an empty gateway with an accepted session open")
	}
	f.gw.KillSessions()
	if !f.gw.Drain(5 * time.Second) {
		t.Fatal("hard close did not unwind the accepted session")
	}
}

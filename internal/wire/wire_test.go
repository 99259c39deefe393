package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := []byte("hello garbler")
	if err := a.SendMsg(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestPipePreservesOrder(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := a.SendMsg([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg, err := b.RecvMsg()
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, msg[0])
		}
	}
}

// tcpPair returns the two ends of a loopback TCP connection as stream
// conns.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	if peer == nil {
		c.Close()
		t.Fatal("accept failed")
	}
	return NewStreamConn(c), NewStreamConn(peer)
}

// TestSendMsgDoesNotRetain pins the Conn contract that callers who
// reuse their send buffers (the OT extension kernel, FrameWriter) rely
// on: once SendMsg has returned, overwriting the buffer must not change
// what the peer reads. The message is larger than a socket buffer, so
// the stream case covers a send that blocked part-way.
func TestSendMsgDoesNotRetain(t *testing.T) {
	pairs := map[string]func(*testing.T) (Conn, Conn){
		"pipe":   func(*testing.T) (Conn, Conn) { return Pipe() },
		"stream": tcpPair,
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			defer a.Close()
			defer b.Close()
			want := bytes.Repeat([]byte{1, 2, 3, 4}, 1<<20)
			buf := bytes.Clone(want)
			type result struct {
				msg []byte
				err error
			}
			got := make(chan result, 1)
			go func() {
				msg, err := b.RecvMsg()
				got <- result{msg, err}
			}()
			if err := a.SendMsg(buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0x99
			}
			r := <-got
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !bytes.Equal(r.msg, want) {
				t.Fatal("the peer read bytes written to the buffer after SendMsg returned")
			}
		})
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := b.RecvMsg()
		errc <- err
	}()
	a.Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("RecvMsg after close: %v, want ErrClosed", err)
	}
	if err := a.SendMsg([]byte("x")); err != ErrClosed {
		t.Fatalf("SendMsg after close: %v, want ErrClosed", err)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := a.SendMsg([]byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := a.RecvMsg(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := b.RecvMsg(); err != nil {
				t.Error(err)
				return
			}
			if err := b.SendMsg([]byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestStreamConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn := NewStreamConn(c)
		msg, err := conn.RecvMsg()
		if err != nil {
			done <- err
			return
		}
		done <- conn.SendMsg(append(msg, '!'))
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewStreamConn(c)
	defer conn.Close()
	if err := conn.SendMsg([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping!" {
		t.Fatalf("got %q", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestStreamConnEmptyMessage(t *testing.T) {
	var buf bytes.Buffer
	c := NewStreamConn(&buf)
	if err := c.SendMsg(nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes, want 0", len(got))
	}
}

func TestStreamConnRejectsOversizedFrames(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB claimed length
	c := NewStreamConn(&buf)
	if _, err := c.RecvMsg(); err == nil {
		t.Fatal("oversized frame accepted")
	}
	huge := make([]byte, MaxMessageSize+1)
	if err := c.SendMsg(huge); err == nil {
		t.Fatal("oversized send accepted")
	}
}

func TestStreamConnTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'x'}) // claims 10 bytes, has 1
	c := NewStreamConn(&buf)
	if _, err := c.RecvMsg(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestCountingTotals(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	ca := NewCounting(a)
	cb := NewCounting(b)
	if err := ca.SendMsg(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ca.SendMsg(make([]byte, 28)); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.RecvMsg(); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.RecvMsg(); err != nil {
		t.Fatal(err)
	}
	sent, _, sentMsgs, _ := ca.Totals()
	if sent != 128 || sentMsgs != 2 {
		t.Fatalf("sender totals = %d bytes %d msgs", sent, sentMsgs)
	}
	_, recv, _, recvMsgs := cb.Totals()
	if recv != 128 || recvMsgs != 2 {
		t.Fatalf("receiver totals = %d bytes %d msgs", recv, recvMsgs)
	}
}

func TestObservedCountsFramedBytes(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var sent, recvd int
	oa := Observed(a, func(n int) { sent += n }, nil)
	ob := Observed(b, nil, func(n int) { recvd += n })
	if err := oa.SendMsg(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ob.RecvMsg(); err != nil {
		t.Fatal(err)
	}
	// Payload plus the 4-byte frame header, both directions.
	if sent != 104 || recvd != 104 {
		t.Fatalf("observed sent=%d recvd=%d, want 104/104", sent, recvd)
	}
	// Failed operations must not be charged.
	oa.Close()
	if err := oa.SendMsg([]byte("x")); err == nil {
		t.Fatal("send on closed pipe succeeded")
	}
	if sent != 104 {
		t.Fatalf("failed send was charged: %d", sent)
	}
}

func TestPeerAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
		close(done)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewStreamConn(nc)
	if got := PeerAddr(c); got != ln.Addr().String() {
		t.Fatalf("PeerAddr = %q, want %q", got, ln.Addr().String())
	}
	// Wrappers unwrap to the transport address.
	if got := PeerAddr(Observed(NewCounting(c), nil, nil)); got != ln.Addr().String() {
		t.Fatalf("wrapped PeerAddr = %q", got)
	}
	// Address-less transports report "".
	p, q := Pipe()
	defer p.Close()
	defer q.Close()
	if got := PeerAddr(p); got != "" {
		t.Fatalf("pipe PeerAddr = %q", got)
	}
	<-done
}

func TestIsDisconnect(t *testing.T) {
	for _, err := range []error{
		ErrClosed,
		io.EOF,
		io.ErrUnexpectedEOF,
		net.ErrClosed,
		fmt.Errorf("reading frame: %w", ErrClosed),
		// A refused dial is transient from a retry layer's viewpoint:
		// the server is restarting or shedding its listener.
		syscall.ECONNREFUSED,
		&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED},
	} {
		if !IsDisconnect(err) {
			t.Fatalf("IsDisconnect(%v) = false", err)
		}
	}
	for _, err := range []error{
		nil,
		errors.New("protocol: bad frame"),
		fmt.Errorf("message exceeds %d bytes", MaxMessageSize),
	} {
		if IsDisconnect(err) {
			t.Fatalf("IsDisconnect(%v) = true", err)
		}
	}
}

// TestIsDisconnectRefusedDial: a real refused TCP dial (listener
// closed) classifies as a disconnect end to end, not just the bare
// errno.
func TestIsDisconnectRefusedDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, derr := net.Dial("tcp", addr)
	if derr == nil {
		t.Skip("dial to a closed port unexpectedly succeeded")
	}
	if !IsDisconnect(derr) {
		t.Fatalf("IsDisconnect(%v) = false for a refused dial", derr)
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// writeLog records each Write it is handed, the way a byte-level fault
// injector (faultconn.Stream) counts them.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeLog) Read([]byte) (int, error) { return 0, io.EOF }

// TestSendMsgStreamByteIdentical pins the stream framing: a 4-byte
// big-endian length, then the payload, for empty, small and large
// messages alike — and a transport that is not a TCP socket sees them
// as exactly two Writes, header then body, which is what the fault
// matrix's write indices count on.
func TestSendMsgStreamByteIdentical(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("the quick brown fox"), bytes.Repeat([]byte{0xA5}, 1<<20)} {
		var hdr [frameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		var log writeLog
		c := NewStreamConn(&log)
		for i := 0; i < 2; i++ { // twice: the send scratch is reused
			if err := c.SendMsg(payload); err != nil {
				t.Fatalf("SendMsg(%d bytes): %v", len(payload), err)
			}
		}
		if len(log.writes) != 4 {
			t.Fatalf("%d-byte payload sent twice: %d writes, want 4", len(payload), len(log.writes))
		}
		for i, w := range log.writes {
			want := hdr[:]
			if i%2 == 1 {
				want = payload
			}
			if !bytes.Equal(w, want) {
				t.Fatalf("%d-byte payload: write %d differs from the expected header/body", len(payload), i+1)
			}
		}
	}
}

// TestSendMsgsStreamParity: a batch sent with one SendMsgs reaches a
// transport that is not a TCP socket as each frame's header Write then
// its body Write, the parity the fault harness counts on, and as the
// same bytes SendMsg sends one frame at a time.
func TestSendMsgsStreamParity(t *testing.T) {
	batch := [][]byte{[]byte("material"), nil, []byte("ciphertexts")}
	var log writeLog
	if err := NewStreamConn(&log).SendMsgs(batch); err != nil {
		t.Fatal(err)
	}
	if len(log.writes) != 2*len(batch) {
		t.Fatalf("a batch of %d frames took %d writes, want %d", len(batch), len(log.writes), 2*len(batch))
	}
	var one bytes.Buffer
	for i, msg := range batch {
		var hdr [frameHeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
		if !bytes.Equal(log.writes[2*i], hdr[:]) || !bytes.Equal(log.writes[2*i+1], msg) {
			t.Fatalf("frame %d: writes %q, %q; want its header, then its body", i, log.writes[2*i], log.writes[2*i+1])
		}
		if err := NewStreamConn(&one).SendMsg(msg); err != nil {
			t.Fatal(err)
		}
	}
	if got := bytes.Join(log.writes, nil); !bytes.Equal(got, one.Bytes()) {
		t.Fatal("SendMsgs wrote other bytes than SendMsg one frame at a time")
	}
	if err := NewStreamConn(&log).SendMsgs([][]byte{nil, make([]byte, MaxMessageSize+1)}); err == nil {
		t.Fatal("a batch with an oversized frame was sent")
	}
}

// TestReadAheadHeldOnlyWhileUnread: a stream conn holds its read-ahead
// buffer only while it holds bytes not yet returned, and FrameBuffered
// is true exactly when a whole frame is among them.
func TestReadAheadHeldOnlyWhileUnread(t *testing.T) {
	var stream bytes.Buffer
	w := NewStreamConn(&stream)
	for _, msg := range []string{"one", "two"} {
		if err := w.SendMsg([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	stream.Write([]byte{0, 0, 0, 5, 't', 'h'}) // a third frame, cut short
	c := NewStreamConn(&stream)
	sc := c.(*streamConn)
	if FrameBuffered(c) {
		t.Fatal("FrameBuffered before any read")
	}
	if msg, err := c.RecvMsg(); err != nil || string(msg) != "one" {
		t.Fatalf("first frame %q, %v", msg, err)
	}
	if sc.rbuf == nil || !FrameBuffered(Observed(NewCounting(c), nil, nil)) {
		t.Fatal("the second frame, read with the first, is not held")
	}
	if msg, err := c.RecvMsg(); err != nil || string(msg) != "two" {
		t.Fatalf("second frame %q, %v", msg, err)
	}
	if sc.rbuf == nil || FrameBuffered(c) {
		t.Fatal("want the third frame's first bytes held, and no whole frame")
	}
	stream.Write([]byte("ree"))
	if msg, err := c.RecvMsg(); err != nil || string(msg) != "three" {
		t.Fatalf("third frame %q, %v", msg, err)
	}
	if sc.rbuf != nil {
		t.Fatalf("a drained conn still holds a %d-byte read-ahead buffer", cap(sc.rbuf))
	}

	a, b := Pipe()
	defer a.Close()
	if FrameBuffered(b) {
		t.Fatal("FrameBuffered on an empty pipe")
	}
	if err := a.SendMsg([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if !FrameBuffered(b) {
		t.Fatal("FrameBuffered false with a message queued on the pipe")
	}
}

// TestSendMsgStreamOverSocket exercises the writev path a real TCP
// transport takes and checks the peer reassembles whole messages. The
// peer receives through one stream conn: a conn reads ahead, so a
// second conn over the same socket would miss what the first holds.
func TestSendMsgStreamOverSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	sent := [][]byte{[]byte("abcdefg"), nil, bytes.Repeat([]byte("x"), 300<<10)}
	done := make(chan [][]byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		conn := NewStreamConn(c)
		var got [][]byte
		for range sent {
			msg, err := conn.RecvMsg()
			if err != nil {
				break
			}
			got = append(got, msg)
		}
		done <- got
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	conn := NewStreamConn(c)
	for _, msg := range sent {
		if err := conn.SendMsg(msg); err != nil {
			t.Fatalf("SendMsg(%d bytes): %v", len(msg), err)
		}
	}
	got := <-done
	if len(got) != len(sent) {
		t.Fatalf("peer received %d messages, want %d", len(got), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("message %d arrived as %d bytes, want %d", i, len(got[i]), len(sent[i]))
		}
	}
}

// TestFrameWriterCountingAccounting proves a frame sent through a
// FrameWriter is tallied by the Counting wrapper as one message of its
// payload size — the wrapper sees every frame the serve path sends.
func TestFrameWriterCountingAccounting(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	cc := NewCounting(a)
	w := NewFrameWriter(cc, NewArena())
	buf := w.Begin(5)
	buf.B = append(buf.B, "abcde"...)
	if err := w.Send(buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.RecvMsg(); err != nil {
		t.Fatalf("RecvMsg: %v", err)
	}
	sent, _, msgs, _ := cc.Totals()
	if sent != 5 || msgs != 1 {
		t.Fatalf("counting saw %d bytes in %d msgs, want 5 in 1", sent, msgs)
	}
}

// TestFrameWriterObservedAccounting proves the Observed wrapper charges
// the frame header on a FrameWriter frame like on any other message.
func TestFrameWriterObservedAccounting(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	var reported, calls int
	oc := Observed(a, func(n int) { reported += n; calls++ }, nil)
	w := NewFrameWriter(oc, NewArena())
	buf := w.Begin(5)
	buf.B = append(buf.B, "abcde"...)
	if err := w.Send(buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := b.RecvMsg(); err != nil {
		t.Fatalf("RecvMsg: %v", err)
	}
	if want := 5 + frameHeaderSize; reported != want || calls != 1 {
		t.Fatalf("observed reported %d bytes in %d calls, want %d in 1", reported, calls, want)
	}
}

// TestRecvLimit: LimitRecv reaches the stream connection through a
// chain of wrappers, an over-limit length prefix is refused by name
// without allocating the announced size, and lifting the cap restores
// MaxMessageSize.
func TestRecvLimit(t *testing.T) {
	var stream bytes.Buffer
	inner := NewStreamConn(&stream)
	conn := Observed(NewCounting(inner), nil, nil)

	LimitRecv(conn, SetupFrameLimit)
	if err := inner.SendMsg(make([]byte, SetupFrameLimit)); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.RecvMsg(); err != nil || len(msg) != SetupFrameLimit {
		t.Fatalf("frame at the cap: %d bytes, %v", len(msg), err)
	}

	// A hostile prefix: 64 MiB announced, nothing behind it.
	stream.Reset()
	stream.Write([]byte{0x04, 0x00, 0x00, 0x00})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := conn.RecvMsg()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit 8192") {
		t.Fatalf("over-cap frame: error = %v, want one naming the 8192-byte cap", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a 64 MiB prefix allocated %d bytes", grew)
	}

	LimitRecv(conn, MaxMessageSize)
	stream.Reset()
	if err := inner.SendMsg(make([]byte, SetupFrameLimit+1)); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.RecvMsg(); err != nil || len(msg) != SetupFrameLimit+1 {
		t.Fatalf("frame above the lifted cap: %d bytes, %v", len(msg), err)
	}

	a, _ := Pipe()
	LimitRecv(a, SetupFrameLimit) // no stream underneath: a no-op, not a panic
}

// TestArenaAccounting covers checkout accounting: in-use and
// outstanding rise on Get, fall on Free, peak holds the high-water
// mark, and double-free is a no-op.
func TestArenaAccounting(t *testing.T) {
	a := NewArena()
	b1 := a.Get(100)
	b2 := a.Get(200)
	if a.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", a.Outstanding())
	}
	if in := a.InUseBytes(); in < 300 {
		t.Fatalf("in-use = %d, want >= 300", in)
	}
	peak := a.PeakBytes()
	if peak < 300 {
		t.Fatalf("peak = %d, want >= 300", peak)
	}
	b1.Free()
	b1.Free() // double-free must not corrupt accounting
	b2.Free()
	if a.Outstanding() != 0 || a.InUseBytes() != 0 {
		t.Fatalf("after free: outstanding=%d in-use=%d, want 0/0", a.Outstanding(), a.InUseBytes())
	}
	if a.PeakBytes() != peak {
		t.Fatalf("peak moved after free: %d, want %d", a.PeakBytes(), peak)
	}
}

// TestArenaReuse checks a freed buffer's capacity is reused rather than
// reallocated. A collection may trim the arena's free list between a
// Free and a Get, so one reuse in several attempts is the property.
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	for attempt := 0; attempt < 32; attempt++ {
		b1 := a.Get(64)
		b1.B = append(b1.B, make([]byte, 64)...)
		p1 := &b1.B[:1][0]
		b1.Free()
		b2 := a.Get(32)
		b2.B = append(b2.B, 0)
		reused := cap(b2.B) >= 64 && &b2.B[0] == p1
		b2.Free()
		if reused {
			return
		}
	}
	t.Fatal("a freed buffer's backing array was never reused in 32 attempts")
}

// TestFrameWriterSendsAndFrees checks a FrameWriter frame round-trips
// and the buffer returns to the arena even when the send fails.
func TestFrameWriterSendsAndFrees(t *testing.T) {
	a, b := Pipe()
	arena := NewArena()
	w := NewFrameWriter(a, arena)

	buf := w.Begin(8)
	buf.B = append(buf.B, []byte("payload")...)
	if err := w.Send(buf); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := b.RecvMsg()
	if err != nil {
		t.Fatalf("RecvMsg: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q, want %q", got, "payload")
	}
	if arena.Outstanding() != 0 {
		t.Fatalf("buffer not returned after Send: outstanding=%d", arena.Outstanding())
	}

	a.Close()
	buf = w.Begin(4)
	buf.B = append(buf.B, 1, 2, 3)
	if err := w.Send(buf); err == nil {
		t.Fatal("Send on closed conn: want error")
	}
	if arena.Outstanding() != 0 {
		t.Fatalf("buffer leaked on failed send: outstanding=%d", arena.Outstanding())
	}
}

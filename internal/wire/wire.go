// Package wire provides the message-framing transport shared by the
// oblivious-transfer and two-party protocol layers: length-prefixed
// messages over any io.ReadWriter (the TCP path between cloud server
// and client) and an in-memory pipe (the in-process path used by tests
// and single-binary examples).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// MaxMessageSize bounds a single framed message (64 MiB). It protects
// against corrupt or hostile length prefixes.
const MaxMessageSize = 64 << 20

// SetupFrameLimit is the receive cap for frames that arrive before the
// peer has proven anything: the handshake, the routing preface and the
// OT set-up. Every frame of those phases has a known size — the largest
// is the 4 224-byte base-OT point batch — so a hostile length prefix
// there costs the receiver at most this much memory, not
// MaxMessageSize.
const SetupFrameLimit = 8 << 10

// frameHeaderSize is the length prefix each framed message carries.
const frameHeaderSize = 4

// Conn is a reliable, ordered message channel between two parties.
type Conn interface {
	// SendMsg transmits one message. It must not retain msg: once it
	// returns the caller may overwrite the buffer, and the peer still
	// reads the bytes it held during the call. The OT extension kernel
	// and FrameWriter reuse their send buffers on the strength of this;
	// every Conn in the tree keeps it (the stream conn has written the
	// bytes out, the pipe has copied them, the wrappers delegate) and a
	// new implementation must.
	SendMsg(msg []byte) error
	// SendMsgs transmits msgs in order, as SendMsg would one by one,
	// under the same no-retain contract; a stream conn writes them with
	// one writev. A wrapper that hooks SendMsg must hook every frame of
	// SendMsgs too, or the embedded Conn's SendMsgs would carry frames
	// past its hook.
	SendMsgs(msgs [][]byte) error
	// RecvMsg receives the next message. The message is the caller's:
	// no Conn keeps a reference to it. A caller done with it may hand
	// it back with Recycle, so a later RecvMsg on any Conn reuses its
	// buffer; a caller that keeps it, or anything aliasing it, simply
	// never recycles it.
	RecvMsg() ([]byte, error)
	// Close releases the channel. Further operations fail.
	Close() error
}

// DeadlineConn is a Conn whose blocking operations can be bounded by
// an absolute deadline, in the net.Conn style: the deadline applies to
// every current and future SendMsg/RecvMsg until replaced, the zero
// time clears it, and an expired deadline fails operations — including
// ones already blocked — with an error matching os.ErrDeadlineExceeded
// (see IsTimeout). Both Pipe ends and stream connections over a
// deadline-capable transport (any net.Conn) implement it.
type DeadlineConn interface {
	Conn
	SetDeadline(t time.Time) error
}

// ErrDeadlineUnsupported is returned by SetDeadline when the
// underlying transport cannot enforce deadlines (a plain io.ReadWriter
// with no SetDeadline of its own).
var ErrDeadlineUnsupported = errors.New("wire: transport does not support deadlines")

// connUnwrapper is implemented by Conn wrappers (Counting, Observed,
// fault injectors, ...) that delegate to an inner Conn, so helpers like
// AsDeadline and PeerAddr can reach the transport underneath.
type connUnwrapper interface{ Unwrap() Conn }

// AsDeadline finds the deadline-capable connection underneath c,
// unwrapping any chain of wrappers that expose Unwrap. Setting a
// deadline on the returned DeadlineConn bounds operations made through
// the wrappers too, since they all delegate to the same transport.
func AsDeadline(c Conn) (DeadlineConn, bool) {
	for c != nil {
		if dc, ok := c.(DeadlineConn); ok {
			return dc, true
		}
		u, ok := c.(connUnwrapper)
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
	return nil, false
}

// streamConn frames messages over a byte stream with a 4-byte
// big-endian length prefix.
type streamConn struct {
	rw  io.ReadWriter
	wmu sync.Mutex // serialises writers: a batch's headers and bodies must stay adjacent
	rmu sync.Mutex // serialises readers: a frame must be read by one caller

	// Send scratch, guarded by wmu: the headers and the header-then-body
	// buffer list of the batch being written live here, so a send
	// allocates nothing once they have grown to the largest batch.
	whdr  []byte
	wvec  [][]byte
	wbufs net.Buffers

	// Read-ahead, guarded by rmu: rbuf[roff:] are bytes read from the
	// transport and not yet returned. rbuf is drawn from the body size
	// classes when a read needs it and recycled as soon as RecvMsg
	// drains it, so a conn holds it only while it holds unread bytes.
	rbuf []byte
	roff int

	// rlimit is the largest frame RecvMsg accepts; zero means
	// MaxMessageSize. See LimitRecv.
	rlimit atomic.Int64
}

// readAhead bounds one read of the transport: a small frame whose
// header and body fit in it is served from the read-ahead buffer,
// together with whatever that read brought in behind it.
const readAhead = 64 << 10

// directRead is the smallest body read straight into its own buffer:
// whatever of it the read-ahead already holds is copied, and the rest
// goes into the body with no second copy. A garbled round's frame at
// b ≥ 16 is larger; control frames and per-round OT messages are
// smaller and come out of the read-ahead.
const directRead = 4 << 10

// NewStreamConn wraps a byte stream (e.g. a *net.TCPConn) as a Conn.
// Closing the Conn closes the underlying stream when it implements
// io.Closer. RecvMsg reads ahead of the frame it returns, so every
// frame of a stream must be received through the one Conn: a second
// stream conn over the same reader, or a direct Read, misses the bytes
// the first one holds. Wrapping a stream again only to send is fine.
func NewStreamConn(rw io.ReadWriter) Conn { return &streamConn{rw: rw} }

// SendMsg is SendMsgs of one frame.
func (c *streamConn) SendMsg(msg []byte) error { return c.SendMsgs([][]byte{msg}) }

// SendMsgs writes every frame's length prefix and payload with one
// net.Buffers write: a single writev — one syscall, and one TCP segment
// for a small batch — when the transport is a *net.TCPConn, and each
// frame's header Write followed by its body Write on any other
// io.Writer.
func (c *streamConn) SendMsgs(msgs [][]byte) error {
	for _, msg := range msgs {
		if len(msg) > MaxMessageSize {
			return fmt.Errorf("wire: message of %d bytes exceeds limit %d", len(msg), MaxMessageSize)
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if n := len(msgs); cap(c.whdr) < frameHeaderSize*n {
		n = max(n, cap(c.wvec)) // at least double: batches grow a frame at a time
		c.whdr, c.wvec = make([]byte, frameHeaderSize*n), make([][]byte, 0, 2*n)
	}
	c.wvec = c.wvec[:0]
	for i, msg := range msgs {
		hdr := c.whdr[frameHeaderSize*i : frameHeaderSize*(i+1)]
		binary.BigEndian.PutUint32(hdr, uint32(len(msg)))
		c.wvec = append(c.wvec, hdr, msg)
	}
	c.wbufs = c.wvec
	_, err := c.wbufs.WriteTo(c.rw)
	clear(c.wvec) // do not pin the caller's buffers until the next send
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// RecvMsg returns the next frame. A frame under directRead that fits
// in the read-ahead window is copied out of the read-ahead buffer,
// filled by as few reads as the transport allows; a larger one has
// whatever was read ahead of its body copied, and the rest of the body
// read straight into it. A length prefix over the receive cap is
// refused before any body is drawn.
func (c *streamConn) RecvMsg() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	defer c.drained()
	limit := c.rlimit.Load()
	if limit <= 0 || limit > MaxMessageSize {
		limit = MaxMessageSize
	}
	// Under the set-up cap a read asks for no more than the largest
	// frame the cap admits.
	window := int(min(readAhead, limit+frameHeaderSize))
	if err := c.fill(frameHeaderSize, window); err != nil {
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(c.rbuf[c.roff:]))
	if int64(n) > limit {
		c.roff += frameHeaderSize
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, limit)
	}
	if frameHeaderSize+n <= window && n < directRead {
		if err := c.fill(frameHeaderSize+n, window); err != nil {
			return nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
	}
	c.roff += frameHeaderSize
	msg := body(n)
	k := copy(msg, c.rbuf[c.roff:])
	c.roff += k
	if k < n { // the rest of the body goes straight into msg
		c.drained()
		if _, err := io.ReadFull(c.rw, msg[k:]); err != nil {
			Recycle(msg)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
	}
	return msg, nil
}

// fill reads until the read-ahead buffer holds need unread bytes, need
// ≤ window, with no read asking for more than window bytes beyond
// what is unread. A stream that ends with nothing unread is io.EOF, one
// that ends inside a frame io.ErrUnexpectedEOF.
func (c *streamConn) fill(need, window int) error {
	have := len(c.rbuf) - c.roff
	if have >= need {
		return nil
	}
	switch {
	case cap(c.rbuf) < window: // the first read, or the cap was lifted
		b := body(window)[:have]
		copy(b, c.rbuf[c.roff:])
		Recycle(c.rbuf)
		c.rbuf, c.roff = b, 0
	case c.roff+window > cap(c.rbuf):
		c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[c.roff:])]
		c.roff = 0
	}
	for len(c.rbuf)-c.roff < need {
		n, err := c.rw.Read(c.rbuf[len(c.rbuf) : c.roff+window])
		c.rbuf = c.rbuf[:len(c.rbuf)+n]
		if err != nil && len(c.rbuf)-c.roff < need {
			if err == io.EOF && len(c.rbuf) > c.roff {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// drained hands the read-ahead buffer back once nothing in it is unread.
func (c *streamConn) drained() {
	if c.roff == len(c.rbuf) {
		Recycle(c.rbuf)
		c.rbuf, c.roff = nil, 0
	}
}

// frameBuffered reports whether a whole frame is read ahead.
func (c *streamConn) frameBuffered() bool {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	have := c.rbuf[c.roff:]
	return len(have) >= frameHeaderSize &&
		int64(len(have)-frameHeaderSize) >= int64(binary.BigEndian.Uint32(have))
}

func (c *streamConn) Close() error {
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// streamDeadliner is satisfied by net.Conn transports.
type streamDeadliner interface{ SetDeadline(t time.Time) error }

// SetDeadline bounds current and future stream operations when the
// underlying transport supports deadlines (any net.Conn does), and
// returns ErrDeadlineUnsupported otherwise — the caller decides whether
// a timeout-less transport is acceptable.
func (c *streamConn) SetDeadline(t time.Time) error {
	if d, ok := c.rw.(streamDeadliner); ok {
		return d.SetDeadline(t)
	}
	return ErrDeadlineUnsupported
}

// ErrClosed is returned by pipe operations after Close.
var ErrClosed = errors.New("wire: connection closed")

// pipeCloser is the close signal shared by both ends of a pipe:
// closing either end tears down the whole channel.
type pipeCloser struct {
	done chan struct{}
	once sync.Once
}

func (c *pipeCloser) close() { c.once.Do(func() { close(c.done) }) }

// pipeDeadline is one end's deadline state, in the style of net.Pipe:
// a channel that closes when the deadline passes, recreated when a new
// deadline is set after an expiry.
type pipeDeadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{} // closed when the deadline passes
}

func makePipeDeadline() *pipeDeadline {
	return &pipeDeadline{cancel: make(chan struct{})}
}

// set replaces the deadline: zero clears it, a past time expires it
// immediately (waking blocked operations), a future time arms a timer.
func (d *pipeDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // the timer fired between Stop and here; wait it out
	}
	d.timer = nil
	closed := isClosedChan(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if closed {
			d.cancel = make(chan struct{})
		}
		ch := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(ch) })
		return
	}
	if !closed {
		close(d.cancel)
	}
}

// wait returns the channel that closes when the deadline passes.
func (d *pipeDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// errPipeTimeout is what an expired pipe deadline yields; it wraps
// os.ErrDeadlineExceeded so callers classify it exactly like a socket
// timeout (see IsTimeout).
var errPipeTimeout = fmt.Errorf("wire: pipe deadline exceeded: %w", os.ErrDeadlineExceeded)

// pipeConn is one end of an in-memory duplex message channel.
type pipeConn struct {
	send     chan<- []byte
	recv     <-chan []byte
	closer   *pipeCloser
	deadline *pipeDeadline // this end's deadline, shared by send and recv
}

// Pipe returns two connected in-memory Conns. Messages sent on one end
// are received on the other, in order. The buffer depth keeps
// ping-pong protocols from deadlocking when both parties run in the
// same goroutine for short exchanges. Each end supports SetDeadline
// with net.Conn semantics, so timeout paths are testable without
// sockets.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 1024)
	ba := make(chan []byte, 1024)
	closer := &pipeCloser{done: make(chan struct{})}
	a := &pipeConn{send: ab, recv: ba, closer: closer, deadline: makePipeDeadline()}
	b := &pipeConn{send: ba, recv: ab, closer: closer, deadline: makePipeDeadline()}
	return a, b
}

func (p *pipeConn) SendMsg(msg []byte) error {
	select {
	case <-p.closer.done:
		return ErrClosed
	default:
	}
	if isClosedChan(p.deadline.wait()) {
		return errPipeTimeout
	}
	cp := body(len(msg)) // the receiver owns the copy
	copy(cp, msg)
	select {
	case p.send <- cp:
		return nil
	case <-p.closer.done:
		Recycle(cp)
		return ErrClosed
	case <-p.deadline.wait():
		Recycle(cp)
		return errPipeTimeout
	}
}

// SendMsgs sends each message in turn; a pipe has no syscall to save.
func (p *pipeConn) SendMsgs(msgs [][]byte) error {
	for _, msg := range msgs {
		if err := p.SendMsg(msg); err != nil {
			return err
		}
	}
	return nil
}

// frameBuffered reports whether a message is queued.
func (p *pipeConn) frameBuffered() bool { return len(p.recv) > 0 }

func (p *pipeConn) RecvMsg() ([]byte, error) {
	if isClosedChan(p.deadline.wait()) {
		return nil, errPipeTimeout
	}
	select {
	case msg, ok := <-p.recv:
		if !ok {
			return nil, ErrClosed
		}
		return msg, nil
	case <-p.closer.done:
		// Drain any message that raced with Close.
		select {
		case msg, ok := <-p.recv:
			if ok {
				return msg, nil
			}
		default:
		}
		return nil, ErrClosed
	case <-p.deadline.wait():
		return nil, errPipeTimeout
	}
}

// SetDeadline bounds this end's current and future operations; the
// zero time clears it. The peer end keeps its own deadline.
func (p *pipeConn) SetDeadline(t time.Time) error {
	p.deadline.set(t)
	return nil
}

func (p *pipeConn) Close() error {
	p.closer.close()
	return nil
}

// Counting wraps a Conn and tallies traffic, used by the benchmarks to
// report protocol communication volume.
type Counting struct {
	Conn
	mu             sync.Mutex
	sent, received int64
	sentMsgs       int64
	recvMsgs       int64
}

// NewCounting wraps conn with byte and message counters.
func NewCounting(conn Conn) *Counting { return &Counting{Conn: conn} }

// SendMsg implements Conn.
func (c *Counting) SendMsg(msg []byte) error {
	err := c.Conn.SendMsg(msg)
	if err == nil {
		c.mu.Lock()
		c.sent += int64(len(msg))
		c.sentMsgs++
		c.mu.Unlock()
	}
	return err
}

// SendMsgs implements Conn, tallying each frame.
func (c *Counting) SendMsgs(msgs [][]byte) error {
	err := c.Conn.SendMsgs(msgs)
	if err == nil {
		c.mu.Lock()
		for _, msg := range msgs {
			c.sent += int64(len(msg))
		}
		c.sentMsgs += int64(len(msgs))
		c.mu.Unlock()
	}
	return err
}

// RecvMsg implements Conn.
func (c *Counting) RecvMsg() ([]byte, error) {
	msg, err := c.Conn.RecvMsg()
	if err == nil {
		c.mu.Lock()
		c.received += int64(len(msg))
		c.recvMsgs++
		c.mu.Unlock()
	}
	return msg, err
}

// Totals returns bytes and messages sent and received so far.
func (c *Counting) Totals() (sentBytes, recvBytes, sentMsgs, recvMsgs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent, c.received, c.sentMsgs, c.recvMsgs
}

// Unwrap returns the wrapped Conn.
func (c *Counting) Unwrap() Conn { return c.Conn }

// observedConn reports per-message wire volume to callbacks. Unlike
// Counting it charges the 4-byte frame header too, so the totals match
// what actually crosses the transport.
type observedConn struct {
	Conn
	onSend, onRecv func(bytes int)
}

// Observed wraps conn so every successful send/receive reports its
// framed byte count (payload + header) to the given callbacks — the
// hook the daemon uses to feed per-connection traffic into its metrics
// registry. Nil callbacks are allowed.
func Observed(conn Conn, onSend, onRecv func(bytes int)) Conn {
	return &observedConn{Conn: conn, onSend: onSend, onRecv: onRecv}
}

func (c *observedConn) SendMsg(msg []byte) error {
	err := c.Conn.SendMsg(msg)
	if err == nil && c.onSend != nil {
		c.onSend(len(msg) + frameHeaderSize)
	}
	return err
}

func (c *observedConn) SendMsgs(msgs [][]byte) error {
	err := c.Conn.SendMsgs(msgs)
	if err == nil && c.onSend != nil {
		for _, msg := range msgs {
			c.onSend(len(msg) + frameHeaderSize)
		}
	}
	return err
}

func (c *observedConn) RecvMsg() ([]byte, error) {
	msg, err := c.Conn.RecvMsg()
	if err == nil && c.onRecv != nil {
		c.onRecv(len(msg) + frameHeaderSize)
	}
	return msg, err
}

// Unwrap returns the wrapped Conn.
func (c *observedConn) Unwrap() Conn { return c.Conn }

// remoteAddrer is satisfied by net.Conn transports.
type remoteAddrer interface{ RemoteAddr() net.Addr }

// streamUnder finds the stream connection underneath c, unwrapping any
// chain of wrappers that expose Unwrap; nil when there is none (an
// in-memory pipe, a foreign Conn).
func streamUnder(c Conn) *streamConn {
	for c != nil {
		if sc, ok := c.(*streamConn); ok {
			return sc
		}
		u, ok := c.(connUnwrapper)
		if !ok {
			return nil
		}
		c = u.Unwrap()
	}
	return nil
}

// PeerAddr reports the remote address of the transport underlying c.
// It returns "" for in-memory pipes and other address-less transports.
func PeerAddr(c Conn) string {
	if sc := streamUnder(c); sc != nil {
		if ra, ok := sc.rw.(remoteAddrer); ok {
			return ra.RemoteAddr().String()
		}
	}
	return ""
}

// FrameBuffered reports whether the next RecvMsg on c returns without
// waiting on the transport: a whole frame is already read ahead by the
// stream connection underneath c, or queued on its pipe. A caller that
// may either send first or receive first uses it to receive first only
// when that cannot block. Only c's reader may ask, since another
// reader's RecvMsg would change the answer.
func FrameBuffered(c Conn) bool {
	for c != nil {
		if fb, ok := c.(interface{ frameBuffered() bool }); ok {
			return fb.frameBuffered()
		}
		u, ok := c.(connUnwrapper)
		if !ok {
			return false
		}
		c = u.Unwrap()
	}
	return false
}

// LimitRecv caps the frames the stream connection underneath c accepts
// at n bytes: SetupFrameLimit while the peer is still unauthenticated,
// MaxMessageSize once it is not. A length prefix announcing more fails
// RecvMsg before any buffer is allocated. The cap holds until the next
// LimitRecv; in-memory pipes carry no length prefix and ignore it.
func LimitRecv(c Conn, n int) {
	if sc := streamUnder(c); sc != nil {
		sc.rlimit.Store(int64(n))
	}
}

// IsDisconnect reports whether err is one of the transport-level
// "peer went away (or is not there)" errors — a closed pipe or socket,
// an EOF on a frame boundary, a reset, or a refused dial — as opposed
// to a protocol-level failure. Callers use it to tell an orderly
// hangup apart from stream corruption; retry layers use it as the
// transient-fault signal (a refused connection usually means the
// server is restarting).
func IsDisconnect(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED)
}

// IsTimeout reports whether err is a deadline expiry — from a net.Conn
// deadline, a pipe deadline, or anything else wrapping
// os.ErrDeadlineExceeded or a net.Error with Timeout() — as opposed to
// a disconnect or a corruption error. IsTimeout and IsDisconnect are
// disjoint: a stalled-but-connected peer times out, a vanished peer
// disconnects, and callers react differently to each.
func IsTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

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
	wmu sync.Mutex // serialises writers: header and body must stay adjacent
	rmu sync.Mutex // serialises readers: header and body must be read by one caller

	// Send scratch, guarded by wmu: the header bytes and the
	// header-then-body buffer list of the frame being written live here
	// so SendMsg allocates nothing per message.
	whdr  [frameHeaderSize]byte
	wvec  [2][]byte
	wbufs net.Buffers
	// rhdr is the receive side's header scratch, guarded by rmu: a
	// local array would escape through the io.Reader interface.
	rhdr [frameHeaderSize]byte

	// rlimit is the largest frame RecvMsg accepts; zero means
	// MaxMessageSize. See LimitRecv.
	rlimit atomic.Int64
}

// NewStreamConn wraps a byte stream (e.g. a *net.TCPConn) as a Conn.
// Closing the Conn closes the underlying stream when it implements
// io.Closer.
func NewStreamConn(rw io.ReadWriter) Conn { return &streamConn{rw: rw} }

// SendMsg writes the length prefix and the payload with one
// net.Buffers write: a single writev — one syscall, one TCP segment for
// a small frame — when the transport is a *net.TCPConn, and the header
// Write followed by the body Write on any other io.Writer.
func (c *streamConn) SendMsg(msg []byte) error {
	if len(msg) > MaxMessageSize {
		return fmt.Errorf("wire: message of %d bytes exceeds limit %d", len(msg), MaxMessageSize)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.BigEndian.PutUint32(c.whdr[:], uint32(len(msg)))
	c.wvec[0], c.wvec[1] = c.whdr[:], msg
	c.wbufs = c.wvec[:]
	_, err := c.wbufs.WriteTo(c.rw)
	c.wvec[1] = nil // do not pin the caller's buffer until the next send
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

func (c *streamConn) RecvMsg() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	limit := c.rlimit.Load()
	if limit <= 0 || limit > MaxMessageSize {
		limit = MaxMessageSize
	}
	if int64(n) > limit {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, limit)
	}
	msg := body(int(n))
	if _, err := io.ReadFull(c.rw, msg); err != nil {
		Recycle(msg)
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return msg, nil
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

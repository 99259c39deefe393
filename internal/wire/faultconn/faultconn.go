// Package faultconn is a fault-injection harness for the wire layer:
// it wraps a healthy connection and misbehaves on cue, so robustness
// tests can drive every protocol phase into every failure it must
// survive. Two wrappers cover the two granularities faults occur at:
//
//   - Conn wraps a wire.Conn and injects message-level faults — added
//     latency (deterministically jittered from a seed), indefinite
//     stalls, injected errors, and mid-protocol closes, each triggered
//     on the Nth send or receive; plus two unscripted-index modes:
//     a seeded per-op loss probability (Flaky) and a first-read stall
//     (StallFirstRead), which maxchaos drives at fleet scale.
//   - Stream wraps the byte stream beneath wire.NewStreamConn and
//     injects byte-level faults a message wrapper cannot express —
//     corrupt length prefixes and mid-frame cuts.
//
// The harness exists because the garbler runs as a cloud service: a
// single stalled or hostile evaluator must cost the server one phase
// timeout, not a session goroutine pinned forever. The protocol
// fault-matrix tests are its primary consumer.
package faultconn

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"maxelerator/internal/wire"
)

// ErrInjected marks every fault the harness injects, so tests can
// tell a scripted failure from a real one.
var ErrInjected = errors.New("faultconn: injected fault")

// Options scripts the faults of one Conn. Trigger counts are 1-based
// call indices (StallOnSend: 3 stalls the third SendMsg); zero
// disables a fault. All faults are deterministic given the same
// Options and call sequence.
type Options struct {
	// Seed makes the jittered delays reproducible.
	Seed int64
	// SendDelay and RecvDelay sleep before every send / receive,
	// modelling a slow link.
	SendDelay, RecvDelay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// message, drawn from the seeded generator.
	Jitter time.Duration
	// StallOnSend / StallOnRecv make the Nth send / receive block
	// until the connection is closed — the silent-peer fault: the
	// connection stays open, traffic just stops.
	StallOnSend, StallOnRecv int
	// ErrOnSend / ErrOnRecv make the Nth send / receive fail with
	// ErrInjected without touching the wire.
	ErrOnSend, ErrOnRecv int
	// CloseOnSend / CloseOnRecv close the underlying connection on the
	// Nth send / receive and fail it — the vanishing-peer fault.
	CloseOnSend, CloseOnRecv int
	// FlakyP makes every send and receive fail with ErrInjected with
	// probability p ∈ (0, 1], drawn from the seeded generator — the
	// lossy-link / overloaded-kernel fault where *which* op fails is
	// not scripted, only how often. Deterministic given Seed and the
	// op sequence. Zero disables.
	FlakyP float64
	// StallFirstRead makes the very first RecvMsg block until the
	// connection is closed — the accepted-but-mute peer: the TCP
	// handshake succeeded, then nothing ever arrives. Distinct from
	// StallOnRecv so harnesses can script both (stall the first read
	// of a reconnect while a later indexed stall covers the steady
	// state).
	StallFirstRead bool
}

// Flaky is the Options shorthand maxchaos and the fault matrix share:
// every op fails with probability p, reproducibly under seed.
func Flaky(seed int64, p float64) Options { return Options{Seed: seed, FlakyP: p} }

// Conn wraps an inner wire.Conn with scripted message-level faults.
type Conn struct {
	inner wire.Conn
	opts  Options

	mu           sync.Mutex
	rng          *rand.Rand
	sends, recvs int

	done chan struct{}
	once sync.Once
}

// New wraps inner with the scripted faults.
func New(inner wire.Conn, opts Options) *Conn {
	return &Conn{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		done:  make(chan struct{}),
	}
}

// Unwrap returns the wrapped Conn, keeping wire.AsDeadline and
// wire.PeerAddr transparent to the harness.
func (c *Conn) Unwrap() wire.Conn { return c.inner }

// delay sleeps the scripted base latency plus seeded jitter, waking
// early if the connection closes.
func (c *Conn) delay(base time.Duration) error {
	d := base
	if c.opts.Jitter > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.opts.Jitter)))
		c.mu.Unlock()
	}
	if d <= 0 {
		return nil
	}
	select {
	case <-time.After(d):
		return nil
	case <-c.done:
		return fmt.Errorf("faultconn: closed during injected delay: %w", ErrInjected)
	}
}

// stall blocks until the connection is closed, then fails — the
// scripted silent peer.
func (c *Conn) stall(op string) error {
	<-c.done
	return fmt.Errorf("faultconn: stalled %s released by close: %w", op, ErrInjected)
}

// flake draws the seeded per-op loss coin.
func (c *Conn) flake() bool {
	if c.opts.FlakyP <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < c.opts.FlakyP
}

// SendMsg implements wire.Conn with the scripted send-side faults.
func (c *Conn) SendMsg(msg []byte) error {
	if err := c.sendFault(nil); err != nil {
		return err
	}
	return c.inner.SendMsg(msg)
}

// SendMsgs implements wire.Conn: each frame counts as one send and
// meets that send's faults, the frames ahead of a faulted one go out
// before its fault strikes, as they would have one SendMsg at a time,
// and a batch with no fault goes out whole.
func (c *Conn) SendMsgs(msgs [][]byte) error {
	for i := range msgs {
		if err := c.sendFault(msgs[:i]); err != nil {
			return err
		}
	}
	return c.inner.SendMsgs(msgs)
}

// sendFault counts one send and applies its scripted delay and fault,
// sending ahead, the frames of its batch before it, just before a
// fault.
func (c *Conn) sendFault(ahead [][]byte) error {
	c.mu.Lock()
	c.sends++
	n := c.sends
	c.mu.Unlock()
	if err := c.delay(c.opts.SendDelay); err != nil {
		return err
	}
	scripted := n == c.opts.StallOnSend || n == c.opts.ErrOnSend || n == c.opts.CloseOnSend
	flaky := !scripted && c.flake()
	if (scripted || flaky) && len(ahead) > 0 {
		if err := c.inner.SendMsgs(ahead); err != nil {
			return err
		}
	}
	switch {
	case n == c.opts.StallOnSend:
		return c.stall("send")
	case n == c.opts.ErrOnSend:
		return fmt.Errorf("faultconn: send %d: %w", n, ErrInjected)
	case n == c.opts.CloseOnSend:
		c.Close()
		return fmt.Errorf("faultconn: send %d closed the connection: %w", n, ErrInjected)
	case flaky:
		return fmt.Errorf("faultconn: flaky send %d: %w", n, ErrInjected)
	}
	return nil
}

// RecvMsg implements wire.Conn with the scripted receive-side faults.
func (c *Conn) RecvMsg() ([]byte, error) {
	c.mu.Lock()
	c.recvs++
	n := c.recvs
	c.mu.Unlock()
	if err := c.delay(c.opts.RecvDelay); err != nil {
		return nil, err
	}
	switch {
	case n == 1 && c.opts.StallFirstRead:
		return nil, c.stall("first recv")
	case n == c.opts.StallOnRecv:
		return nil, c.stall("recv")
	case n == c.opts.ErrOnRecv:
		return nil, fmt.Errorf("faultconn: recv %d: %w", n, ErrInjected)
	case n == c.opts.CloseOnRecv:
		c.Close()
		return nil, fmt.Errorf("faultconn: recv %d closed the connection: %w", n, ErrInjected)
	}
	if c.flake() {
		return nil, fmt.Errorf("faultconn: flaky recv %d: %w", n, ErrInjected)
	}
	return c.inner.RecvMsg()
}

// Close releases every stalled or delayed operation and closes the
// wrapped connection.
func (c *Conn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.inner.Close()
}

// Ops reports how many sends and receives have been attempted,
// including the faulted ones — tests use it to size a stall sweep
// after a healthy run.
func (c *Conn) Ops() (sends, recvs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends, c.recvs
}

// Stream wraps a byte stream (placed beneath wire.NewStreamConn) with
// byte-level write faults. Under the wire framing each message is two
// writes — a 4-byte length prefix, then the body — so write index 2k+1
// is the k-th message's header and 2k+2 its body (1-based), whether the
// messages were sent one by one or in one SendMsgs.
type Stream struct {
	rw io.ReadWriter

	// CorruptWrite replaces every byte of the Nth (1-based) Write with
	// 0xFF before forwarding. Corrupting a header write turns the
	// length prefix hostile (a claimed 4 GiB frame); corrupting a body
	// desynchronises the peer's framing. Zero disables.
	CorruptWrite int
	// CutWrite forwards only the first half of the Nth (1-based)
	// Write, closes the underlying stream, and fails — the peer is
	// left holding a partial frame. Zero disables.
	CutWrite int
	// CutAfterWrite forwards the Nth (1-based) Write in full and then
	// closes the underlying stream, so the cut lands exactly on a
	// write boundary: the Nth write succeeds, the next one fails.
	// Cutting after a header write (odd index) leaves the peer holding
	// a complete length prefix whose payload never arrives. Zero
	// disables.
	CutAfterWrite int

	mu     sync.Mutex
	writes int
}

// NewStream wraps rw; configure the fault fields before first use.
func NewStream(rw io.ReadWriter) *Stream { return &Stream{rw: rw} }

// Read passes through to the wrapped stream.
func (s *Stream) Read(p []byte) (int, error) { return s.rw.Read(p) }

// Write forwards p, applying the scripted corruption or cut when its
// write index matches.
func (s *Stream) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes++
	n := s.writes
	s.mu.Unlock()
	switch n {
	case s.CorruptWrite:
		bad := make([]byte, len(p))
		for i := range bad {
			bad[i] = 0xFF
		}
		return s.rw.Write(bad)
	case s.CutWrite:
		if _, err := s.rw.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		s.Close()
		return len(p) / 2, fmt.Errorf("faultconn: stream cut mid-frame at write %d: %w", n, ErrInjected)
	case s.CutAfterWrite:
		nn, err := s.rw.Write(p)
		if err != nil {
			return nn, err
		}
		s.Close()
		return nn, nil
	}
	return s.rw.Write(p)
}

// Writes reports how many writes have been attempted, including the
// faulted ones — tests use it to place a cut after a healthy run.
func (s *Stream) Writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Close closes the wrapped stream when it supports closing.
func (s *Stream) Close() error {
	if cl, ok := s.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

package protocol

// Deadline-aware protocol I/O. The garbler runs as a cloud service:
// with -max-sessions admission control, a single evaluator that stalls
// mid-OT would otherwise pin a session goroutine (and its admission
// slot) forever. Every wire operation therefore runs under the budget
// of the protocol phase it belongs to — a connection-setup budget for
// the handshake and the public-key OT setup, a steady-state budget for
// everything after — armed as an absolute deadline on the transport
// before each send/receive. Budgets bound a single wire operation, not
// a whole request, so arbitrarily large matrices stay servable while a
// silent peer is detected within one budget.
//
// Context cancellation rides the same mechanism: binding a context to
// the connection slams the deadline into the past when the context
// ends, failing in-flight operations immediately. That is how shutdown
// drain interrupts a session blocked on a wire wait.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
)

// ErrPhaseTimeout is returned (wrapped, with the phase and budget
// named) when a wire operation exceeds its phase deadline. It is
// distinguishable from a disconnect: wire.IsDisconnect is false for
// it, so callers can tell a stalled-but-connected peer from one that
// hung up.
var ErrPhaseTimeout = errors.New("protocol: phase deadline exceeded")

// Timeouts bundles the per-operation I/O budgets of a session. The
// zero value applies no deadlines (every wire operation may block
// forever), preserving pre-timeout behaviour for embedded users;
// daemons should always set both.
type Timeouts struct {
	// Handshake bounds each wire operation of the connection-setup
	// phases: version negotiation and the base-OT + IKNP extension
	// setup. These run once per connection and involve public-key
	// rounds, so they get their own (typically shorter) budget.
	Handshake time.Duration
	// IO bounds each wire operation of the steady-state phases:
	// request open, per-round OT, material streaming, and the result
	// read.
	IO time.Duration
}

// Phase names, used in timeout errors and the phase_timeouts_total
// metric. They mirror the session-trace span taxonomy.
const (
	phaseHandshake   = "handshake"
	phaseOTSetup     = "ot_setup"
	phaseRequestOpen = "request_open"
	phaseRounds      = "rounds"
	phaseDecode      = "decode"
)

// aLongTimeAgo is the deadline used to interrupt in-flight operations.
var aLongTimeAgo = time.Unix(1, 0)

// timedConn wraps the session's connection so every wire operation —
// including the ones the ot package makes internally — runs under the
// current phase's budget, taken from its endpoint's Timeouts. Both
// endpoints wrap their connection in one; phase transitions just pick
// the budget.
type timedConn struct {
	inner wire.Conn
	reg   *obs.Registry // nil on the client: timeouts still apply, counters don't
	to    Timeouts

	mu     sync.Mutex
	dc     wire.DeadlineConn // nil once the transport proves deadline-incapable
	phase  string
	budget time.Duration
	ctxErr error // sticky cancellation cause set by a bound context
}

func newTimedConn(conn wire.Conn, reg *obs.Registry, to Timeouts) *timedConn {
	dc, _ := wire.AsDeadline(conn) // nil when the transport has no deadlines
	return &timedConn{inner: conn, reg: reg, to: to, dc: dc, phase: phaseHandshake}
}

// enterPhase switches the budget applied to subsequent operations, and
// the receive cap with it. Until the OT set-up is done the budget is
// Timeouts.Handshake, and since the peer has proven nothing and every
// frame due has a known small size, a length prefix announcing more
// than wire.SetupFrameLimit is refused unread; from request_open on the
// budget is Timeouts.IO and the cap wire.MaxMessageSize.
func (tc *timedConn) enterPhase(phase string) {
	budget, limit := tc.to.IO, wire.MaxMessageSize
	if phase == phaseHandshake || phase == phaseOTSetup {
		budget, limit = tc.to.Handshake, wire.SetupFrameLimit
	}
	tc.mu.Lock()
	tc.phase, tc.budget = phase, budget
	tc.mu.Unlock()
	wire.LimitRecv(tc.inner, limit)
}

// bind makes ctx cancellation interrupt this connection's in-flight
// and future operations. The returned release func must be called
// (typically deferred) to detach ctx; it waits for an abort that has
// already started. Cancellation stays sticky after release — a
// cancelled session does not resume.
func (tc *timedConn) bind(ctx context.Context) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	// Already cancelled: fail fast, synchronously.
	if err := ctx.Err(); err != nil {
		tc.abort(err)
		return func() {}
	}
	aborted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(aborted)
		tc.abort(ctx.Err())
	})
	return func() {
		if !stop() {
			<-aborted
		}
	}
}

// abort records the cancellation cause and slams the transport
// deadline so blocked operations return immediately.
func (tc *timedConn) abort(cause error) {
	tc.mu.Lock()
	if tc.ctxErr == nil {
		tc.ctxErr = cause
	}
	dc := tc.dc
	tc.mu.Unlock()
	if dc != nil {
		dc.SetDeadline(aLongTimeAgo)
	}
}

// arm applies the current phase budget as an absolute deadline and
// returns the phase context for error reporting. A transport without
// deadline support downgrades gracefully: budgets become no-ops.
func (tc *timedConn) arm() (phase string, budget time.Duration, err error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.ctxErr != nil {
		return "", 0, fmt.Errorf("protocol: %s phase: session cancelled: %w", tc.phase, tc.ctxErr)
	}
	if tc.dc == nil {
		return tc.phase, 0, nil
	}
	var t time.Time
	if tc.budget > 0 {
		t = time.Now().Add(tc.budget)
	}
	if derr := tc.dc.SetDeadline(t); derr != nil {
		if errors.Is(derr, wire.ErrDeadlineUnsupported) {
			tc.dc = nil
			return tc.phase, 0, nil
		}
		return "", 0, fmt.Errorf("protocol: arming %s deadline: %w", tc.phase, derr)
	}
	return tc.phase, tc.budget, nil
}

// classify maps a failed operation's error: cancellation first (a
// slammed deadline must surface as the context error, not a timeout),
// then deadline expiry to ErrPhaseTimeout with the phase named, and
// everything else untouched.
func (tc *timedConn) classify(phase string, budget time.Duration, err error) error {
	if err == nil {
		return nil
	}
	tc.mu.Lock()
	cerr := tc.ctxErr
	tc.mu.Unlock()
	if cerr != nil {
		return fmt.Errorf("protocol: %s phase interrupted: %w", phase, cerr)
	}
	if wire.IsTimeout(err) {
		tc.reg.PhaseTimeouts(phase).Inc()
		return fmt.Errorf("%w: %s phase wire op exceeded %v (%v)", ErrPhaseTimeout, phase, budget, err)
	}
	return err
}

// SendMsg implements wire.Conn under the current phase budget.
func (tc *timedConn) SendMsg(msg []byte) error {
	phase, budget, err := tc.arm()
	if err != nil {
		return err
	}
	return tc.classify(phase, budget, tc.inner.SendMsg(msg))
}

// RecvMsg implements wire.Conn under the current phase budget.
func (tc *timedConn) RecvMsg() ([]byte, error) {
	phase, budget, err := tc.arm()
	if err != nil {
		return nil, err
	}
	msg, rerr := tc.inner.RecvMsg()
	if rerr != nil {
		return nil, tc.classify(phase, budget, rerr)
	}
	return msg, nil
}

// Close implements wire.Conn.
func (tc *timedConn) Close() error { return tc.inner.Close() }

// Unwrap keeps wire.PeerAddr and wire.AsDeadline transparent.
func (tc *timedConn) Unwrap() wire.Conn { return tc.inner }

// Package protocol runs the paper's system configuration (Fig. 1, §3)
// between two real endpoints: the cloud server — host CPU plus
// MAXelerator, acting as the garbler — and the client, acting as the
// evaluator. The accelerator simulator produces the garbled tables and
// input labels; the host streams them to the client over a wire.Conn
// (in-memory pipe or TCP); the client obtains its input labels through
// IKNP oblivious transfer and evaluates round by round, exactly the
// sequential-GC flow that lets memory-constrained clients hold only
// one round of labels at a time.
//
// # Multiplexed sessions (since protocol v2)
//
// A connection carries one versioned handshake and one base-OT + IKNP
// extension setup, then any number of requests. The client drives the
// request loop: each request is opened by the client, shaped by a
// server header (rows, columns, OT mode), served with fresh labels,
// and closed by the client's result report. Paying the expensive OT
// setup once per connection instead of once per request is what makes
// the "millions of users" target reachable; see DESIGN.md §8 for the
// wire format.
//
// The server has one entry point: NewSession (or NewSessionContext)
// opens a connection's session, and ServerSession.Serve serves each
// request on it; the client end is Dial. The garbler hot path stripes
// matrix rows over up to SessionConfig.GarbleWorkers lanes, as the
// client does over its evaluators, and streams every round in row
// order, so the wire format is identical whatever the lane count.
//
// The threat model is honest-but-curious, matching the paper.
package protocol

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// ProtoVersion is the wire protocol generation spoken by this package.
// Version 2 introduced the versioned handshake, per-connection OT
// setup and multiplexed request framing; version 3 moved the base OT
// onto P-256 (33-byte compressed points where v2 carried 256-byte
// group elements); version 4 replaced the gob-encoded control frames
// with the tagged binary ones of frames.go, and fixes the garbling
// parameters (half gates over fixed-key AES) instead of naming the
// scheme in the hello; version 5 garbles the folded MAC netlist (no
// constant, repeated-operand or unread ANDs), which both ends build
// from the shape, so a v4 peer would disagree on every table count;
// version 6 garbles the radix-4 Booth MAC (b/2 partial-product rows
// selected by the garbler's digits, no conditional negations), so a v5
// peer disagrees on every table count in turn; version 7 shares the
// evaluator's input labels of round j across every row of a request,
// so one OT per round of row 0 (per-round) or one of Cols·Width labels
// (batched) serves the whole request, and a v6 peer would wait for OT
// exchanges that never come; version 8 hashes the IKNP extension's rows
// with the fixed-key TCCR hash of gchash.HashRows instead of SHA-256,
// so a v7 peer would unmask every OT answer into garbage labels;
// version 9 sends material in codec version 2, whose tables carry no
// row-count byte (the header carries it once a frame), so a v8 peer
// would refuse every material frame. Any other generation is
// detected in the handshake — by its version field, or, for the gob
// generations, by the first byte of its first frame — and rejected with
// ErrVersionMismatch before a single OT byte moves.
const ProtoVersion = 9

// ErrVersionMismatch is returned (wrapped, naming the local version and
// what is known of the peer's) when the two endpoints speak different
// protocol generations.
var ErrVersionMismatch = errors.New("protocol: version mismatch")

// ErrSessionEnded is returned by ServerSession.Serve when the client
// has closed the request loop (or disconnected between requests):
// the session is over, no request was consumed.
var ErrSessionEnded = errors.New("protocol: session ended by client")

// ErrSessionClosed is returned by ClientSession.Do on a session that
// was Closed or broken by an earlier error (then wrapping that error).
var ErrSessionClosed = errors.New("protocol: client session closed")

// ErrServerBusy marks a connection the server shed at admission: the
// server answered with a busy frame instead of its hello and closed.
// The condition is transient by construction — retry with backoff
// (see BusyError.RetryAfter for the server's hint).
var ErrServerBusy = errors.New("protocol: server busy")

// ErrInternal marks a server-side failure (typically a recovered
// panic) converted into a per-request error frame. The session is
// broken, but the request is safely replayable on a fresh connection:
// every garbling uses fresh labels, so nothing was leaked.
var ErrInternal = errors.New("protocol: internal server error")

// BusyError is the client-side view of a server busy frame. It wraps
// ErrServerBusy so errors.Is classification works, and carries the
// server's retry hint.
type BusyError struct {
	// RetryAfter is the server's suggested backoff before the next
	// connection attempt (zero when the server offered no hint).
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("protocol: server busy (retry after %v)", e.RetryAfter)
	}
	return "protocol: server busy"
}

func (e *BusyError) Unwrap() error { return ErrServerBusy }

// OTMode selects how the evaluator's input labels travel (§3).
type OTMode int

const (
	// OTPerRound runs one OT-extension batch per round of row 0, whose
	// labels every later row reuses: the evaluator holds the row pads of
	// otLookahead + 2 batches whose requests run ahead of the material,
	// and, for a request of more than one row, row 0's Cols·Width
	// labels.
	OTPerRound OTMode = iota
	// OTBatched transfers every round's labels, Cols·Width of them, in
	// one OT-extension batch before any material, which the server runs
	// once row 0's round 0 is garbled: fewer round trips for the same
	// labels held.
	OTBatched
)

// String names the mode for logs and errors.
func (m OTMode) String() string {
	switch m {
	case OTPerRound:
		return "per-round"
	case OTBatched:
		return "batched"
	default:
		return fmt.Sprintf("OTMode(%d)", int(m))
	}
}

// validate is the single place an OT mode is checked, for requests
// built locally and for modes announced on the wire alike.
func (m OTMode) validate() error {
	switch m {
	case OTPerRound, OTBatched:
		return nil
	default:
		return fmt.Errorf("protocol: unknown OT mode %d", int(m))
	}
}

// SendBusy sheds one connection: it sends the busy frame carrying the
// retry hint. The caller closes the connection afterwards; the client
// surfaces the frame as a BusyError from Dial.
func SendBusy(conn wire.Conn, retryAfter time.Duration) error {
	return conn.SendMsg(appendBusy(nil, retryAfter))
}

// recvRound reads the next round-stream frame. At a round boundary
// the garbler sends either garbled material or a terminal error frame —
// the mechanism that lets a recovered server-side panic fail one
// request explicitly instead of leaving the evaluator blocked until its
// deadline. A material frame is returned whole and unparsed: the
// evaluator that takes the round parses it where it lies into its own
// view and recycles it once the round is evaluated (chainRound.eval).
func recvRound(conn wire.Conn) ([]byte, error) {
	msg, err := conn.RecvMsg()
	if err != nil {
		return nil, err
	}
	switch tagOf(msg) {
	case tagMaterial:
		return msg, nil
	case tagError:
		err = fmt.Errorf("%w: %s", ErrInternal, msg[1:])
	default:
		err = fmt.Errorf("protocol: unknown round frame tag %#02x in a %d-byte frame", tagOf(msg), len(msg))
	}
	wire.Recycle(msg)
	return nil, err
}

// sendErrFrame is the garbler's best-effort abort notification on the
// round stream; failures to deliver it are ignored (the peer may
// already be gone, and the session is broken either way). The text is a
// generic description: internal details (panic values, operand ranges)
// stay in the server log, never on the wire.
func sendErrFrame(conn wire.Conn, text string) error {
	return conn.SendMsg(append([]byte{tagError}, text...))
}

// Server is the garbler endpoint: it owns the accelerator
// configuration and the model data. NewSession may be called from
// concurrent goroutines — every request is one gc.Request keyed from a
// fresh seed read from the configuration's Rand, so it garbles under
// its own free-XOR offset and labels, as the paper requires ("new
// labels are required for every garbling operation to ensure
// security"), and its rows share them.
type Server struct {
	// sim is the compiled accelerator — resolved configuration (defaults
	// applied), MAC netlist, lowered program, schedule, metric handles —
	// built once at NewServer and shared read-only by every session and
	// lane. It keys each request and keeps its accounting.
	sim *maxsim.Simulator
	obs *obs.Obs
	// timeouts are the per-operation I/O budgets of every session.
	timeouts Timeouts
	// pre, when non-nil, is the offline/online precomputation engine:
	// matvec requests first try a pre-garbled pool entry and only fall
	// back to inline garbling on a miss.
	pre *precompute.Engine
	// rounds recycles the rounds every session's lanes garble inline,
	// of sim's circuit. A round's frame is the buffer its tables were
	// garbled into: the session's cork releases the round once the
	// write that carries the frame returns (stream.go), and a lane
	// refills it in place. The collector's clock trims the pool: an
	// idle server lets go of its rounds two collections after its last
	// request, and a server whose sessions come and go keeps the rounds
	// they reserve.
	rounds *gc.RoundPool
	// started flips when the first session begins; the With* option
	// setters consult it to enforce configure-before-serve (mutating a
	// server already shared with session goroutines is a data race).
	started atomic.Bool
}

// mustNotHaveServed panics when an option setter runs after the first
// session started: the With* methods mutate state every session reads
// unsynchronized, so late configuration is a bug, not a request. The
// panic names the offender so the fix is one stack frame away.
func (s *Server) mustNotHaveServed(method string) {
	if s.started.Load() {
		panic(fmt.Sprintf("protocol: Server.%s called after a session was served; configure the server before NewSession", method))
	}
}

// NewServer builds a server around an accelerator configuration.
func NewServer(cfg maxsim.Config) (*Server, error) {
	// Validate eagerly so misconfiguration surfaces at startup, not on
	// the first client. The resolved configuration (defaults applied)
	// is what every session garbles under.
	sim, err := maxsim.New(cfg)
	if err != nil {
		return nil, err
	}
	// The hello names no garbling parameters: every v4+ client evaluates
	// under gc.DefaultParams, and a garbler on anything else would
	// handshake cleanly and then compute garbage.
	got, want := sim.Config().Params, gc.DefaultParams()
	if got.Scheme.Name() != want.Scheme.Name() || got.Hash.Name() != want.Hash.Name() {
		return nil, fmt.Errorf("protocol: protocol v%d fixes %s/%s, got %s/%s", ProtoVersion,
			want.Scheme.Name(), want.Hash.Name(), got.Scheme.Name(), got.Hash.Name())
	}
	// Every client refuses a hello outside the served bound, so a server
	// configured outside it would fail every session; fail at boot.
	if err := checkWidths(sim.Config().Width, sim.Config().AccWidth); err != nil {
		return nil, err
	}
	rounds, err := gc.NewRoundPool(sim.Config().Params, sim.Circuit())
	if err != nil {
		return nil, err
	}
	return &Server{sim: sim, rounds: rounds}, nil
}

// checkWidths is the one bound on a served MAC shape, 1 ≤ width and
// 2·width ≤ accWidth ≤ 64 (a result decodes into an int64), applied by
// NewServer to its configuration and by Dial to the hello.
func checkWidths(width, accWidth int) error {
	if width < 1 || accWidth < 2*width || accWidth > 64 {
		return fmt.Errorf("protocol: width %d / accumulator width %d outside the served bound 1 ≤ width, 2·width ≤ accumulator ≤ 64 (results decode into an int64)",
			width, accWidth)
	}
	return nil
}

// checkShape is the one bound on a request's shape, applied by
// Request.validate and by Do to the header before the client allocates
// for it. It rejects only requests that could never complete: the
// result (8 bytes a row) must fit one frame, and so must a batched
// request's one OT answer of cols·width transfers (two labels each; its
// u matrix is less).
func checkShape(rows, cols, width int, mode OTMode) error {
	maxRows, maxLabels := (wire.MaxMessageSize-1)/8, wire.MaxMessageSize/(2*label.Size)
	if rows < 1 || rows > maxRows || mode == OTBatched && cols > maxLabels/width {
		return fmt.Errorf("protocol: %d rows × %d cols (%s, width %d) outside the served bound 1 ≤ rows ≤ %d, batched cols·width ≤ %d (each must fit one frame)",
			rows, cols, mode, width, maxRows, maxLabels)
	}
	return nil
}

// WithObs attaches an observability hub: every session is counted,
// phase-traced (handshake → ot_setup → rounds → decode) and timed, and
// the rows garbled inline are counted into the hub's hardware counters.
// Call before serving (panics after the first session); returns s for
// chaining.
func (s *Server) WithObs(o *obs.Obs) *Server {
	s.mustNotHaveServed("WithObs")
	s.obs = o
	s.sim = s.sim.WithMetrics(o.Metrics())
	return s
}

// WithPrecompute attaches an offline/online precomputation engine:
// every matvec request (per-round or batched OT) first tries a
// pre-garbled pool entry for its shape — the online path then runs only
// OT, table streaming and decode, skipping garbling entirely — and
// falls back to inline garbling on a miss, with identical wire format
// either way. The engine's one shape is fixed by its own Admit or
// Prefill; misses teach it nothing, so a request of another shape
// always garbles inline. Call before serving (panics after the first
// session); returns s for chaining.
func (s *Server) WithPrecompute(eng *precompute.Engine) *Server {
	s.mustNotHaveServed("WithPrecompute")
	s.pre = eng
	return s
}

// shapeOf keys a request into the precompute pool namespace.
func (s *Server) shapeOf(req Request) precompute.Shape {
	return precompute.Shape{
		Rows:   len(req.Matrix),
		Cols:   len(req.Matrix[0]),
		Width:  s.sim.Config().Width,
		Signed: s.sim.Config().Signed,
		Mode:   shapeModeMatVec,
		OT:     req.OT.String(),
	}
}

// WithTimeouts sets the per-operation I/O budgets for every session
// this server runs: Handshake bounds each wire operation of
// the connection-setup phases, IO each steady-state one. The zero
// value leaves operations unbounded (the pre-timeout behaviour). Call
// before serving (panics after the first session); returns s for
// chaining.
func (s *Server) WithTimeouts(t Timeouts) *Server {
	s.mustNotHaveServed("WithTimeouts")
	s.timeouts = t
	return s
}

// ArenaOutstanding reports how many frame buffers the server's
// sessions currently hold: the rounds taken from the server's
// RoundPool, each the buffer its frame goes out in, and not yet put
// back. Every serve path — success, fault, or mid-session disconnect —
// must return its rounds, so a server with no session in flight
// reports zero; harnesses (cmd/maxchaos) assert this after a drain as
// the arena-leak check.
func (s *Server) ArenaOutstanding() int64 { return s.rounds.Outstanding() }

// Stats of the last served computation.
type Stats = maxsim.Stats

// Request describes one computation to serve: a matrix–vector product
// under either OT mode.
type Request struct {
	// Matrix is the garbler's private input: each row is one
	// sequential MAC chain over the client's vector. A plain dot
	// product is a one-row matrix.
	Matrix [][]int64
	// OT selects the label-transfer mode (default OTPerRound).
	OT OTMode
}

// validate rejects malformed or unservable requests — a ragged or
// empty matrix, an entry outside the configured width, an unknown OT
// mode or a shape past the served bound — before any wire traffic, so
// a bad request never desynchronises an open session or leaves the
// client waiting on a half-sent one.
func (req Request) validate(cfg maxsim.Config) error {
	if len(req.Matrix) == 0 || len(req.Matrix[0]) == 0 {
		return fmt.Errorf("protocol: empty server matrix")
	}
	cols := len(req.Matrix[0])
	for i, row := range req.Matrix {
		if len(row) != cols {
			return fmt.Errorf("protocol: row %d has %d columns, want %d", i, len(row), cols)
		}
		for j, v := range row {
			if err := circuit.CheckRange(v, cfg.Width, cfg.Signed); err != nil {
				return fmt.Errorf("protocol: matrix entry (%d, %d): %w", i, j, err)
			}
		}
	}
	if err := req.OT.validate(); err != nil {
		return err
	}
	return checkShape(len(req.Matrix), cols, cfg.Width, req.OT)
}

// Response is the server-side outcome of one request.
type Response struct {
	// Values is the client-reported result, one per matrix row.
	Values []int64
	// Stats is the accelerator accounting for the request.
	Stats Stats
}

// maxRowSpans bounds the per-row garbling spans one request opens;
// rows past it get only the aggregate rounds span. The session trace
// bounds its own total (obs.MaxSpans) across requests.
const maxRowSpans = 64

// session is the per-session observability state; its trace and
// metrics carry kind "mux", the one kind of session. Every field is
// nil-safe, so the uninstrumented server pays only a few nil checks.
// finish is idempotent: the first caller (error return or Close)
// records the terminal state.
type session struct {
	srv    *Server
	tr     *obs.SessionTrace
	reg    *obs.Registry
	active *obs.Gauge
	start  time.Time
	once   bool
}

func (s *Server) beginSession(conn wire.Conn, tr *obs.SessionTrace) *session {
	s.started.Store(true)
	reg := s.obs.Metrics()
	if tr == nil {
		tr = s.obs.Traces().StartSession("mux", wire.PeerAddr(conn))
	}
	reg.Counter("sessions_total", "protocol sessions accepted", obs.L("kind", "mux")).Inc()
	active := reg.Gauge("sessions_active", "protocol sessions currently in flight")
	active.Add(1)
	return &session{srv: s, tr: tr, reg: reg, active: active, start: time.Now()}
}

// finish closes the session once; later calls are no-ops.
func (ss *session) finish(err error) {
	if ss.once {
		return
	}
	ss.once = true
	ss.active.Add(-1)
	ss.tr.Finish(err)
	ss.reg.Histogram("session_seconds", "end-to-end session duration", nil,
		obs.L("kind", "mux")).Observe(time.Since(ss.start).Seconds())
	if err != nil {
		ss.reg.Counter("session_errors_total", "sessions that ended in error",
			obs.L("kind", "mux")).Inc()
	}
}

// observeOTSetup times the base-OT + IKNP extension setup.
func (ss *session) observeOTSetup(d time.Duration) {
	ss.reg.Histogram("ot_setup_seconds", "base-OT plus IKNP extension setup time", nil).
		Observe(d.Seconds())
}

// observeRequest times one completed matvec request end to end (header
// through decode), labelled by its precompute outcome ("hit", "miss",
// "off") — the per-request service-time distribution the capacity-model
// calibrator (internal/capmodel) samples simulated work from.
func (ss *session) observeRequest(precompute string, d time.Duration) {
	ss.reg.Histogram("request_seconds", "completed matvec request duration (header through decode)",
		nil, obs.L("precompute", precompute)).Observe(d.Seconds())
}

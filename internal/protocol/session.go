package protocol

// Multiplexed server sessions: one versioned handshake and one base-OT
// + IKNP extension setup per connection, then any number of requests.
// The client drives the request loop (request open → request header →
// rounds → result); every request garbles under fresh labels (one
// freshly seeded gc.Request each), so multiplexing never weakens the
// paper's fresh-labels-per-garbling requirement.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/wire"
)

// SessionConfig shapes one multiplexed server session.
type SessionConfig struct {
	// GarbleWorkers caps the lanes garbling each request's rows at
	// min(GarbleWorkers, Rows), at least one. Every lane is a goroutine:
	// lane h garbles rows r ≡ h (mod lanes) on its own gc.Lane of the
	// request into its own bounded queue, and the session goroutine
	// frames the rounds from the queues in row order. The lanes share
	// the request's Δ and a row's labels and tweaks follow from its
	// index, so the transcript is byte-identical at every lane count.
	GarbleWorkers int
	// Trace, when non-nil, is a caller-opened session trace annotated
	// with the session's phase spans instead of opening a fresh one —
	// this is how the daemon correlates its structured session logs
	// with /debug/sessions entries.
	Trace *obs.SessionTrace
}

// ServerSession is the garbler's end of one multiplexed connection.
// It is not safe for concurrent use: requests are served strictly one
// at a time, mirroring the client's sequential evaluation. A session
// that hits a mid-request wire or garbling error is broken — the
// stream position is unknown — and refuses further requests.
type ServerSession struct {
	srv     *Server
	tc      *timedConn // every wire op runs under a phase budget
	ss      *session
	sender  *ot.ExtensionSender
	workers int
	seq     int
	ended   bool
	broken  error

	// pairs is a batched-OT request's label pairs in round order, drawn
	// from its key (or a hit's row 0) for its one OT; see recyclePairs.
	pairs []label.Pair
	// cork is the frames framed and not yet written (stream.go).
	cork cork
}

// recyclePairs empties pairs for the next request, keeping the backing
// array unless the request was larger than the OT layer itself keeps
// buffers for.
func (sess *ServerSession) recyclePairs() {
	if len(sess.pairs) > ot.RetainLabels {
		sess.pairs = nil
	}
	sess.pairs = sess.pairs[:0]
}

// NewSession opens a multiplexed session on conn: versioned handshake,
// then one OT-extension setup whose cost every subsequent Serve call
// amortizes. Close the session to record its terminal state.
func (s *Server) NewSession(conn wire.Conn, cfg SessionConfig) (*ServerSession, error) {
	return s.NewSessionContext(context.Background(), conn, cfg)
}

// NewSessionContext is NewSession under a context: cancellation
// interrupts the handshake and OT setup, including operations already
// blocked on the wire. Pass the same context to ServeContext so
// in-flight requests are interruptible too. The connection-level
// phases — version negotiation and OT setup — run each wire operation
// under the handshake budget.
func (s *Server) NewSessionContext(ctx context.Context, conn wire.Conn, cfg SessionConfig) (sess *ServerSession, err error) {
	ss := s.beginSession(conn, cfg.Trace)
	defer func() {
		if err != nil {
			ss.finish(err)
		}
	}()
	if cfg.GarbleWorkers < 0 {
		return nil, fmt.Errorf("protocol: negative garble worker count %d", cfg.GarbleWorkers)
	}
	simCfg := s.sim.Config()
	tc := newTimedConn(conn, ss.reg, s.timeouts)
	release := tc.bind(ctx)
	defer release()
	tc.enterPhase(phaseHandshake)
	ss.tr.SetAttr("proto_version", fmt.Sprint(ProtoVersion))
	ss.tr.SetAttr("scheme", simCfg.Params.Scheme.Name())
	hs := ss.tr.StartSpan("handshake")
	err = tc.SendMsg(appendHello(nil, hello{
		ProtoVersion: ProtoVersion,
		Width:        simCfg.Width, AccWidth: simCfg.AccWidth, Signed: simCfg.Signed,
	}))
	if err != nil {
		hs.End()
		return nil, err
	}
	frame, err := tc.RecvMsg()
	// A hinted client's first frame is its routing preface, sent for the
	// benefit of a gateway that may or may not be in the path. Dialed
	// directly, the server just skips it and reads the ack from the next
	// frame.
	if err == nil && tagOf(frame) == tagShapeHint {
		frame, err = tc.RecvMsg()
	}
	hs.End()
	switch {
	case err != nil && wire.IsDisconnect(err):
		return nil, fmt.Errorf("protocol: peer hung up during handshake (it may speak another generation than v%d): %w", ProtoVersion, err)
	case err != nil:
		// Timeouts, cancellations and over-cap frames already say what
		// happened; pass them through untouched so errors.Is
		// classification survives.
		return nil, err
	}
	peer, err := parseHelloAck(frame)
	switch {
	case err != nil:
		return nil, errForeignFrame("client", err)
	case peer != ProtoVersion:
		return nil, fmt.Errorf("%w: client speaks v%d, server v%d", ErrVersionMismatch, peer, ProtoVersion)
	}

	// OT session setup: the garbler is the extension sender. This is
	// the expensive public-key phase — paid once per connection, reused
	// by every request. It shares the handshake budget: both are
	// connection setup.
	tc.enterPhase(phaseOTSetup)
	otSpan := ss.tr.StartSpan("ot_setup")
	sender, err := ot.NewExtensionSender(tc, simCfg.Rand)
	ss.observeOTSetup(otSpan.End())
	if err != nil {
		return nil, err
	}
	tc.enterPhase(phaseRequestOpen)
	return &ServerSession{srv: s, tc: tc, ss: ss, sender: sender, workers: cfg.GarbleWorkers}, nil
}

// Serve handles the next client request with the server-side inputs in
// req. It blocks until the client opens a request; ErrSessionEnded
// means the client closed the loop (or disconnected between requests)
// and no request was consumed.
func (sess *ServerSession) Serve(req Request) (*Response, error) {
	return sess.ServeContext(context.Background(), req)
}

// ServeContext is Serve under a context: cancellation interrupts the
// request wherever it is — including wire operations already blocked —
// and breaks the session (the stream position is unknown after an
// interrupted request). This is how shutdown drain reclaims sessions
// stuck on a silent peer.
func (sess *ServerSession) ServeContext(ctx context.Context, req Request) (*Response, error) {
	if sess.broken != nil {
		return nil, fmt.Errorf("protocol: session unusable after earlier error: %w", sess.broken)
	}
	if sess.ended {
		return nil, ErrSessionEnded
	}
	if err := req.validate(sess.srv.sim.Config()); err != nil {
		return nil, err
	}
	release := sess.tc.bind(ctx)
	defer release()
	sess.tc.enterPhase(phaseRequestOpen)
	open, err := sess.tc.RecvMsg()
	if err != nil {
		sess.ended = true
		if wire.IsDisconnect(err) {
			return nil, ErrSessionEnded
		}
		sess.broken = err
		return nil, fmt.Errorf("protocol: reading request open: %w", err)
	}
	tag, n := tagOf(open), len(open)
	wire.Recycle(open)
	switch {
	case n == 1 && tag == tagSessionEnd:
		sess.ended = true
		return nil, ErrSessionEnded
	case n == 1 && tag == tagReqOpen:
	default:
		sess.broken = fmt.Errorf("protocol: expected a request open or session end, got tag %#02x in a %d-byte frame", tag, n)
		return nil, sess.broken
	}
	resp, err := sess.serveRows(ctx, req)
	if err != nil {
		if errors.Is(err, ErrInternal) {
			// A recovered panic: tell the evaluator explicitly so it
			// fails now instead of waiting out its deadline. Best
			// effort — the wire may already be down — and generic: the
			// panic detail stays in the server log, off the wire. The
			// cork holds whole rounds, so it goes first, and the error
			// frame takes the place of the next round's material.
			_ = sess.cork.flush(sess.tc)
			_ = sendErrFrame(sess.tc, "request aborted by internal server error")
		}
		sess.cork.drop()
		sess.broken = err
		return nil, err
	}
	sess.seq++
	sess.tc.enterPhase(phaseRequestOpen)
	return resp, nil
}

// Close records the session's terminal state in the observability
// layer. It never touches the connection — close that separately.
func (sess *ServerSession) Close() error {
	sess.ss.finish(sess.broken)
	return nil
}

// Requests returns how many requests the session has served.
func (sess *ServerSession) Requests() int { return sess.seq }

// serveRows serves an opened request — the one datapath, under
// per-round or batched OT. Rows are garbled on striped lanes of one
// request (fresh labels per request, row-indexed within it) and
// streamed strictly in row order, so the transcript is byte-identical
// whatever the lane count. A panic anywhere on the session goroutine
// is contained here: it becomes a per-request ErrInternal, never a
// daemon crash (every garble lane carries its own recover — a
// goroutine panic cannot be caught across goroutines).
func (sess *ServerSession) serveRows(ctx context.Context, req Request) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, recoveredPanic(sess.ss.reg, r)
		}
	}()
	A := req.Matrix
	cols := len(A[0])
	ss := sess.ss
	reqStart := time.Now()
	sess.tc.enterPhase(phaseRounds)
	ss.tr.SetAttr("rows", fmt.Sprint(len(A)))
	ss.tr.SetAttr("cols", fmt.Sprint(cols))
	hdr := reqHeader{Seq: sess.seq, Rows: len(A), Cols: cols, OT: req.OT}
	if err := sess.tc.SendMsg(appendReqHeader(nil, hdr)); err != nil {
		return nil, err
	}

	// Offline/online split: a pool hit replaces garbling with material
	// that was pre-garbled during idle time — the online path below is
	// then OT + table streaming + decode only. A miss (or no engine)
	// falls through to inline garbling; the bytes on the wire are
	// identical either way, so the evaluator cannot tell (and need not
	// care) which path served it.
	var pre []*maxsim.DotProductRun
	pcOutcome := "off"
	if eng := sess.srv.pre; eng != nil {
		if ent := eng.Take(sess.srv.shapeOf(req)); ent != nil {
			bound, err := ent.Bind(A)
			if err != nil {
				return nil, err
			}
			pre = bound
			pcOutcome = "hit"
			ss.tr.SetAttr("precompute", "hit")
		} else {
			pcOutcome = "miss"
			ss.tr.SetAttr("precompute", "miss")
		}
	}

	rounds := ss.tr.StartSpan("rounds")
	defer rounds.End()
	// Streaming (see stream.go): the lanes' garbling overlaps framing
	// and transfer, so the evaluator starts on row 0 while later rows
	// are still being garbled; a hit frames pooled material. The byte
	// stream is identical to the fully buffered path.
	st := newRowStreamer(sess, req.OT)
	if err := st.run(ctx, A, sess.workers, pre); err != nil {
		return nil, err
	}
	rounds.End()
	var agg Stats // rows × Account(cols), whichever path produced the rounds
	for range A {
		agg.Add(sess.srv.sim.Account(cols))
	}
	ss.tr.SetAttr("macs", fmt.Sprint(agg.MACs))
	ss.tr.SetAttr("table_bytes", fmt.Sprint(agg.TableBytes))

	sess.tc.enterPhase(phaseDecode)
	decode := ss.tr.StartSpan("decode")
	values, err := recvFrame(sess.tc, parseResult)
	decode.End()
	if err != nil {
		return nil, fmt.Errorf("protocol: reading client result: %w", err)
	}
	if len(values) != len(A) {
		return nil, fmt.Errorf("protocol: client reported %d values, want %d", len(values), len(A))
	}
	// Completed requests only: the calibrator (internal/capmodel) turns
	// this distribution into simulator service times, and an aborted
	// request's partial duration would poison it.
	ss.observeRequest(pcOutcome, time.Since(reqStart))
	return &Response{Values: values, Stats: agg}, nil
}

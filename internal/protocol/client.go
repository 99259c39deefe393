package protocol

// The evaluator endpoint. Dial opens a multiplexed session (versioned
// handshake + one OT setup); Do runs one request; Close ends the
// request loop.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/ot"
	"maxelerator/internal/wire"
)

// Client is the evaluator endpoint.
type Client struct {
	// rnd supplies OT randomness; set by NewClient.
	rnd randReader
	// timeouts are the per-operation I/O budgets applied to every
	// session this client dials.
	timeouts Timeouts
	// hint, when non-nil, is sent as the first frame of every dialed
	// session so a shape-aware gateway can route before the handshake.
	hint *ShapeHint
}

type randReader interface{ Read([]byte) (int, error) }

// NewClient builds a client drawing OT randomness from rnd (pass
// crypto/rand.Reader in production).
func NewClient(rnd randReader) (*Client, error) {
	if rnd == nil {
		return nil, fmt.Errorf("protocol: nil random source")
	}
	return &Client{rnd: rnd}, nil
}

// WithTimeouts sets the per-operation I/O budgets for every session
// this client dials, mirroring Server.WithTimeouts: Handshake bounds
// each connection-setup wire operation, IO each steady-state one. The
// zero value leaves operations unbounded. Returns c for chaining.
func (c *Client) WithTimeouts(t Timeouts) *Client {
	c.timeouts = t
	return c
}

// WithShapeHint makes every dialed session open with a shape-hint
// preface frame: a shape-aware gateway (cmd/maxgw) peeks it to pin the
// session to the backend whose precompute pool is warm for that shape,
// while a directly-dialed server skips the frame during its handshake —
// so the hint is safe to set unconditionally. Returns c for chaining.
func (c *Client) WithShapeHint(h ShapeHint) *Client {
	c.hint = &h
	return c
}

// ClientSession is the evaluator's end of one multiplexed connection.
// Not safe for concurrent use; requests run strictly one at a time.
type ClientSession struct {
	tc       *timedConn // every wire op runs under a phase budget
	h        hello
	macCkt   *circuit.Circuit
	receiver *ot.ExtensionReceiver
	seq      int
	closed   bool
	broken   error

	// choices is a batched-OT request's choice bits, and labels a
	// per-round request's active labels of row 0, which every later row
	// reuses; both are reused across requests under ot.RetainLabels'
	// rule.
	choices []bool
	labels  []label.Label
	// evals are the row evaluators, one per goroutine of a request
	// (evals[0] is the reader's), grown to the widest request and
	// reused by the next.
	evals []*rowEvaluator
	// ubuf and umsgs are the u-writer's batch: up to otBatch u frames
	// back to back, and the frames cut from it for one SendMsgs. Only
	// a per-round request's writer touches them, and it is gone before
	// the next request starts one.
	ubuf  []byte
	umsgs [][]byte
}

// Dial opens a session on conn: receive the server hello, negotiate
// the protocol version, run the one base-OT + IKNP extension setup
// every subsequent Do amortizes.
func (c *Client) Dial(conn wire.Conn) (*ClientSession, error) {
	// The client wraps its connection in the same timed wrapper as the
	// server (with no metrics registry): a garbler that stalls mid-setup
	// costs the evaluator one phase budget, not a hung Dial.
	tc := newTimedConn(conn, nil, c.timeouts)
	tc.enterPhase(phaseHandshake)
	// The routing preface goes out before anything is read: the server
	// speaks first, so this frame is the only thing a gateway can
	// classify before committing the session to a backend.
	if c.hint != nil {
		if err := SendShapeHint(tc, *c.hint); err != nil {
			return nil, fmt.Errorf("protocol: sending shape hint: %w", err)
		}
	}
	first, err := tc.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("protocol: reading handshake: %w", err)
	}
	// Load shedding precedes version negotiation: an overloaded server
	// answers the connection with a busy frame instead of its hello.
	if busy, ok := PeekBusy(first); ok {
		return nil, busy
	}
	h, err := parseHello(first)
	if err != nil {
		return nil, errForeignFrame("server", err)
	}
	if h.ProtoVersion != ProtoVersion {
		return nil, fmt.Errorf("%w: server speaks v%d, client v%d", ErrVersionMismatch, h.ProtoVersion, ProtoVersion)
	}
	// The MAC below costs memory in Width²: bound the shape before the
	// server has proven anything.
	if err := checkWidths(h.Width, h.AccWidth); err != nil {
		return nil, fmt.Errorf("protocol: refusing the server hello: %w", err)
	}
	if err := tc.SendMsg(appendHelloAck(nil, ProtoVersion)); err != nil {
		return nil, err
	}
	ckt, err := loweredMAC(circuit.MACConfig{Width: h.Width, AccWidth: h.AccWidth, Signed: h.Signed})
	if err != nil {
		return nil, fmt.Errorf("protocol: rebuilding MAC netlist: %w", err)
	}
	tc.enterPhase(phaseOTSetup)
	receiver, err := ot.NewExtensionReceiver(tc, c.rnd)
	if err != nil {
		return nil, err
	}
	tc.enterPhase(phaseRequestOpen)
	return &ClientSession{tc: tc, h: h, macCkt: ckt, receiver: receiver}, nil
}

// macMemoSize is how many lowered MAC shapes a process keeps for its
// Dials.
const macMemoSize = 4

// macMemo holds the lowered MACs of the last macMemoSize shapes the
// process's Dials used. A circuit is read-only once Program has run, so
// every session of a shape shares one, and a client that dials again
// and again — a retry loop, a fresh connection per request — builds and
// lowers it once. A hello names any of ≈ 2 000 servable shapes, so the
// memo evicts the oldest rather than keeping one entry a shape: a
// hostile server cannot grow it.
var macMemo struct {
	sync.Mutex
	cfgs [macMemoSize]circuit.MACConfig
	ckts [macMemoSize]*circuit.Circuit
	next int // the entry the next new shape replaces
}

// loweredMAC returns cfg's MAC with its program lowered, from the memo
// when the shape is in it.
func loweredMAC(cfg circuit.MACConfig) (*circuit.Circuit, error) {
	macMemo.Lock()
	for i, c := range macMemo.ckts {
		if c != nil && macMemo.cfgs[i] == cfg {
			macMemo.Unlock()
			return c, nil
		}
	}
	macMemo.Unlock()
	c, err := circuit.MAC(cfg) // outside the lock: ≈ 70 µs at b=8
	if err != nil {
		return nil, err
	}
	if _, err := c.Program(); err != nil {
		return nil, err
	}
	macMemo.Lock()
	macMemo.cfgs[macMemo.next], macMemo.ckts[macMemo.next] = cfg, c
	macMemo.next = (macMemo.next + 1) % macMemoSize
	macMemo.Unlock()
	return c, nil
}

// Do runs one request with the client vector y and returns the decoded
// outputs (one per server matrix row). The server decides the request
// shape — matrix dimensions, OT mode — and announces it in the request
// header; Do validates that y fits.
func (cs *ClientSession) Do(y []int64) ([]int64, error) {
	if cs.broken != nil {
		return nil, fmt.Errorf("%w: session unusable after earlier error: %w", ErrSessionClosed, cs.broken)
	}
	if cs.closed {
		return nil, ErrSessionClosed
	}
	// Validate the vector before opening a request, so a bad input
	// never costs a wire exchange (or desynchronizes the session).
	bitsPerRound := make([][]bool, len(y))
	for i, v := range y {
		if err := circuit.CheckRange(v, cs.h.Width, cs.h.Signed); err != nil {
			return nil, fmt.Errorf("protocol: element %d: %w", i, err)
		}
		bitsPerRound[i] = circuit.Int64ToBits(v, cs.h.Width)
	}
	cs.tc.enterPhase(phaseRequestOpen)
	if err := cs.tc.SendMsg([]byte{tagReqOpen}); err != nil {
		return nil, cs.fail(err)
	}
	// The parse also rejects an OT mode this generation does not know,
	// before any label is asked for.
	hdr, err := recvFrame(cs.tc, parseReqHeader)
	if err != nil {
		return nil, cs.fail(fmt.Errorf("protocol: reading request header: %w", err))
	}
	if hdr.Cols != len(y) {
		// The server is already mid-request, about to garble and stream
		// Rows·Cols rounds this client will never evaluate. Abort by
		// closing the connection so it fails fast instead of blocking on
		// OT traffic that will never come (see ClientSession.fail).
		return nil, cs.fail(fmt.Errorf("protocol: server expects a %d-element vector, client holds %d", hdr.Cols, len(y)))
	}
	// Evaluation allocates per row (and label) before any material arrives.
	if err := checkShape(hdr.Rows, hdr.Cols, cs.h.Width, hdr.OT); err != nil {
		return nil, cs.fail(fmt.Errorf("protocol: refusing the request header: %w", err))
	}
	cs.tc.enterPhase(phaseRounds)
	outs, err := cs.evalMatVec(hdr, bitsPerRound)
	if err != nil {
		return nil, cs.fail(err)
	}
	cs.tc.enterPhase(phaseDecode)
	if err := cs.tc.SendMsg(appendResult(nil, outs)); err != nil {
		return nil, cs.fail(err)
	}
	cs.seq++
	cs.tc.enterPhase(phaseRequestOpen)
	return outs, nil
}

// fail breaks the session and closes the connection. Closing is the
// abort signal: a client that bails out mid-request (header mismatch,
// evaluation error) leaves the server garbling rounds nobody will
// evaluate — with the connection closed it sees a prompt disconnect
// instead of stalling until its phase deadline. Before this existed,
// the session was only marked broken locally and the server hung.
func (cs *ClientSession) fail(err error) error {
	cs.broken = err
	cs.tc.Close()
	return err
}

// Close ends the request loop. It is idempotent — the end marker is
// sent at most once — and safe to call on a broken session (the marker
// is suppressed there: the stream position is unknown).
func (cs *ClientSession) Close() error {
	if cs.closed || cs.broken != nil {
		cs.closed = true
		return nil
	}
	cs.closed = true
	return cs.tc.SendMsg([]byte{tagSessionEnd})
}

// Requests returns how many requests the session has completed.
func (cs *ClientSession) Requests() int { return cs.seq }

// Err reports the error that broke the session, or nil while it is
// usable. A retry layer uses it to tell a broken session (reconnect
// required) from one that merely rejected a bad input.
func (cs *ClientSession) Err() error { return cs.broken }

// evalMatVec evaluates a matvec request, obtaining input labels per the
// server-announced OT mode. Every row's round j shares the labels of
// y[j], so either mode transfers Cols·Width labels: batched in one OT
// before any material, per-round one OT per round of row 0, kept for
// the later rows. Rows are independent MAC chains, so they
// run on nw = min(GOMAXPROCS, Rows) goroutines, each on its own
// gc.Evaluator. The caller receives every frame and finishes every OT
// in wire order, evaluates rows r ≡ 0 (mod nw) in place, and hands
// every other row's rounds to helper r mod nw; in per-round mode one
// writer sends the OT requests ahead of it (requestAhead). Each
// direction's transcript is the sequential one, byte for byte; with
// nw = 1 no helper is spawned.
func (cs *ClientSession) evalMatVec(hdr reqHeader, bitsPerRound [][]bool) ([]int64, error) {
	// shared holds round j's labels at [j·Width, (j+1)·Width) for every
	// row it serves: all of them in batched mode, rows ≥ 1 in per-round
	// mode (nil for a one-row request, which keeps nothing).
	var shared []label.Label
	if n := hdr.Cols * cs.h.Width; hdr.OT == OTBatched {
		choices := cs.choices[:0]
		for round := 0; round < hdr.Cols; round++ {
			choices = append(choices, bitsPerRound[round]...)
		}
		if len(choices) <= ot.RetainLabels {
			cs.choices = choices
		}
		var err error
		shared, err = ot.ReceiveLabels(cs.receiver, choices)
		if err != nil {
			return nil, fmt.Errorf("protocol: batched OT: %w", err)
		}
	} else if hdr.Rows > 1 {
		if shared = cs.labels; cap(shared) < n {
			shared = make([]label.Label, n)
		}
		shared = shared[:n]
		if n <= ot.RetainLabels {
			cs.labels = shared
		}
	}

	nw := min(runtime.GOMAXPROCS(0), hdr.Rows)
	for len(cs.evals) < nw {
		ev, err := gc.NewEvaluator(gc.DefaultParams(), cs.macCkt) // the process's one fixed-key hasher
		if err != nil {
			return nil, err
		}
		cs.evals = append(cs.evals, &rowEvaluator{ev: ev})
	}
	outs := make([]int64, hdr.Rows)
	hp := cs.startHelpers(hdr, nw, outs)
	var reqs *otRequests
	if hdr.OT != OTBatched {
		reqs = cs.requestAhead(hdr, bitsPerRound)
	}
	err := cs.readRows(hdr, shared, reqs, hp, outs)
	if reqs != nil {
		if err != nil {
			reqs.fail(err)
			cs.tc.Close() // before Do's fail: the writer's next send must fail
		}
		for range reqs.pending { // until the writer has returned
		}
		if ferr := reqs.failure(); ferr != nil {
			err = ferr // the first failure: the reader's own, or the writer's that closed the conn under it
		}
	}
	if herr := hp.finish(); err == nil {
		err = herr
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// readRows is the reader: every frame and OT finish of the request, in
// wire order. It stops at the next frame boundary once a helper fails.
// A per-round row-0 round's labels come from its OT and are copied into
// shared, which the helpers then only read.
func (cs *ClientSession) readRows(hdr reqHeader, shared []label.Label, reqs *otRequests, hp *rowHelpers, outs []int64) error {
	nw := 1
	if hp != nil {
		nw = len(hp.queues)
	}
	var res *gc.EvalResult
	for row := 0; row < hdr.Rows; row++ {
		h := row % nw
		for round := 0; round < hdr.Cols; round++ {
			if err := hp.failure(); err != nil {
				return err
			}
			frame, err := recvRound(cs.tc)
			if err != nil {
				return fmt.Errorf("protocol: row %d round %d material: %w", row, round, err)
			}
			in := chainRound{frame: frame}
			off := round * cs.h.Width
			if row > 0 || hdr.OT == OTBatched {
				in.active = shared[off : off+cs.h.Width]
			} else if in.active, err = reqs.next(cs.receiver); err != nil {
				wire.Recycle(frame)
				return fmt.Errorf("protocol: row %d round %d OT: %w", row, round, err)
			} else if shared != nil {
				copy(shared[off:], in.active)
			}
			if h != 0 {
				hp.queues[h] <- in
				continue
			}
			if res, err = in.eval(cs.evals[0], res, row, round); err != nil {
				return err
			}
		}
		if h == 0 {
			outs[row] = cs.decode(res.Outputs)
		}
	}
	return nil
}

// otLookahead is how many rounds the per-round OT's requests may run
// ahead of the material, and otBatch how many u frames the writer sends
// in one write; the client holds otLookahead + 2 rounds of row pads and
// one batch of u frames (DESIGN §8).
const (
	otLookahead = 16
	otBatch     = otLookahead / 2
)

// otRequests is a per-round request's OT writer. A u matrix depends only
// on the client's own PRGs and choice bits, so a goroutine builds row
// 0's Cols requests in wire order, up to otLookahead rounds before their
// material, and sends them otBatch at a time, each batch in one
// SendMsgs. It hands each request's pending pads to the reader, to
// finish, before the write that carries its u frame: the server answers
// u_k before it reads u_k+1, so a writer blocked in its write over a
// synchronous transport would otherwise wait on a reader waiting for
// the pending it holds. It is a goroutine, not the reader sending
// ahead, because over a synchronous transport both ends may be blocked
// writing at once.
type otRequests struct {
	pending chan ot.Pending       // closed when the writer returns
	err     atomic.Pointer[error] // the first failure of the writer or the reader
}

// fail records err unless a failure is already recorded.
func (rq *otRequests) fail(err error) { rq.err.CompareAndSwap(nil, &err) }

// failure is the first recorded failure, or nil.
func (rq *otRequests) failure() error {
	if err := rq.err.Load(); err != nil {
		return *err
	}
	return nil
}

// requestAhead starts the writer for a per-round request. A failed
// write closes the connection, so a reader waiting for an answer to a
// u frame that never left fails at once rather than at its deadline;
// the write's error is the request's.
func (cs *ClientSession) requestAhead(hdr reqHeader, bitsPerRound [][]bool) *otRequests {
	rq := &otRequests{pending: make(chan ot.Pending, otLookahead)}
	go func() {
		defer close(rq.pending)
		for k := 0; k < len(bitsPerRound); k += otBatch {
			batch := bitsPerRound[k:min(k+otBatch, len(bitsPerRound))]
			if err := cs.requestBatch(batch, rq.pending); err != nil {
				rq.fail(fmt.Errorf("protocol: sending the u matrices of rounds %d-%d: %w", k, k+len(batch)-1, err))
				cs.tc.Close()
				return
			}
		}
	}()
	return rq
}

// requestBatch builds one request per entry of batch into the session's
// batch buffer, hands each one's pending pads to pending as it is
// built, and then sends the batch's u frames in one SendMsgs.
func (cs *ClientSession) requestBatch(batch [][]bool, pending chan<- ot.Pending) error {
	if cs.ubuf == nil { // sized once for a whole batch of this session's u frames
		cs.ubuf = make([]byte, 0, otBatch*ot.Kappa*((cs.h.Width+7)/8))
		cs.umsgs = make([][]byte, 0, otBatch)
	}
	buf := cs.ubuf[:0]
	var ends [otBatch]int
	for i, bits := range batch {
		var p ot.Pending
		buf, p = ot.RequestLabels(cs.receiver, buf, bits)
		ends[i] = len(buf)
		pending <- p
	}
	cs.ubuf, cs.umsgs = buf, cs.umsgs[:0]
	start := 0
	for _, end := range ends[:len(batch)] {
		cs.umsgs = append(cs.umsgs, buf[start:end])
		start = end
	}
	return cs.tc.SendMsgs(cs.umsgs)
}

// next finishes the next round's OT: its active labels, or the error
// that stopped the writer before the round's request.
func (rq *otRequests) next(er *ot.ExtensionReceiver) ([]label.Label, error) {
	p, ok := <-rq.pending
	if !ok {
		return nil, rq.failure()
	}
	return ot.FinishLabels(er, p)
}

// chainRound is one round of a row's MAC chain: its material frame,
// unparsed, and its active evaluator labels, both owned by whoever
// holds the round.
type chainRound struct {
	frame  []byte
	active []label.Label
}

// rowEvaluator is one goroutine's evaluator and the material view it
// parses each of its rounds' frames into, so that receiving, parsing
// and evaluating a round allocates nothing.
type rowEvaluator struct {
	ev   *gc.Evaluator
	view gc.Material
}

// eval parses the round's frame into re's view, where it lies, and
// evaluates it, chaining the state labels of prev, the row's previous
// round (ignored at round 0); then it recycles the frame: the result is
// re.ev's and copies nothing out of it.
func (in chainRound) eval(re *rowEvaluator, prev *gc.EvalResult, row, round int) (*gc.EvalResult, error) {
	var state []label.Label
	if round > 0 {
		state = prev.StateActive
	}
	var res *gc.EvalResult
	err := re.view.Parse(in.frame[1:])
	if err == nil {
		res, err = re.ev.Eval(&re.view, in.active, state)
	}
	re.view.TableBlock = nil // the frame goes back; the view keeps no alias of it
	wire.Recycle(in.frame)
	if err != nil {
		return nil, fmt.Errorf("protocol: row %d round %d evaluate: %w", row, round, err)
	}
	return res, nil
}

// decode reads a row's final output bits as its accumulator value.
func (cs *ClientSession) decode(bits []bool) int64 {
	if cs.h.Signed {
		return circuit.BitsToInt64(bits)
	}
	return int64(circuit.BitsToUint64(bits))
}

// rowHelpers are the goroutines that evaluate the rows the reader hands
// off. Helper h (1 ≤ h < nw) owns rows r ≡ h (mod nw) and cs.evals[h],
// and reads their rounds from a queue that holds one row: a peer that
// streams faster than the helpers evaluate blocks the reader, so the
// client holds at most one queued row of material per helper.
type rowHelpers struct {
	queues []chan chainRound // queues[0] is unused: those rows are the reader's
	wg     sync.WaitGroup
	err    atomic.Pointer[error] // the first evaluation error
}

// startHelpers starts nw−1 helpers, or none (nil) when nw is 1.
func (cs *ClientSession) startHelpers(hdr reqHeader, nw int, outs []int64) *rowHelpers {
	if nw < 2 {
		return nil
	}
	hp := &rowHelpers{queues: make([]chan chainRound, nw)}
	for h := 1; h < nw; h++ {
		q := make(chan chainRound, hdr.Cols) // one row: the client's memory bound
		hp.queues[h] = q
		hp.wg.Add(1)
		go func() {
			defer hp.wg.Done()
			for row := h; row < hdr.Rows; row += nw {
				var res *gc.EvalResult
				for round := 0; round < hdr.Cols; round++ {
					in, ok := <-q
					if !ok {
						return // the reader stopped early
					}
					var err error
					if res, err = in.eval(cs.evals[h], res, row, round); err != nil {
						first := err // only a failed round moves an error to the heap
						hp.err.CompareAndSwap(nil, &first)
						for in := range q { // keep the reader unblocked until it sees the error
							wire.Recycle(in.frame)
						}
						return
					}
				}
				outs[row] = cs.decode(res.Outputs)
			}
		}()
	}
	return hp
}

// failure reports the first helper error, if any; nil-safe.
func (hp *rowHelpers) failure() error {
	if hp == nil {
		return nil
	}
	if err := hp.err.Load(); err != nil {
		return *err
	}
	return nil
}

// finish closes the queues, waits for every helper, and reports the
// first helper error; nil-safe. No helper outlives it.
func (hp *rowHelpers) finish() error {
	if hp == nil {
		return nil
	}
	for _, q := range hp.queues[1:] {
		close(q)
	}
	hp.wg.Wait()
	return hp.failure()
}

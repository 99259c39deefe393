package protocol

// Streaming serve path. Production and transfer overlap: the garble
// lanes (parallel.go) queue each round as soon as it is garbled, into
// the buffer its frame goes out in — the tables at a fixed offset
// behind room for the tag and the material header — and the session
// goroutine frames it in place (gc.Garbled.Frame writes the header and
// appends the trailer; no table is copied) and runs the OT, which only
// row 0's rounds carry (in batched mode, one OT before round 0's frame,
// over pairs the request key fixes). Round 0's frame therefore leaves
// while the rest of the row is still being garbled, the way
// MAXelerator's PCIe link drains each table while the FSM garbles the
// next. A precompute hit frames the entry's rounds in a plain loop.
// Frames are corked and leave in one write whenever the session
// goroutine would otherwise wait, or once the cork is full; the cork
// holds each round until the write that carries its frame returns. The
// bytes on the wire are byte-identical to the buffered path at any lane
// count or queue depth — only the timing and the buffering change,
// which is what the bytes_buffered_peak gauge exists to prove.

import (
	"context"
	"fmt"
	"sync/atomic"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/ot"
	"maxelerator/internal/wire"
)

// byteWatermark tracks bytes currently buffered between production and
// transfer, with a high-water mark. The lanes and the session goroutine
// update it concurrently.
type byteWatermark struct {
	cur, peak atomic.Int64
}

func (w *byteWatermark) add(n int64) {
	c := w.cur.Add(n)
	for {
		p := w.peak.Load()
		if c <= p || w.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// The cork caps: the cork is flushed once it holds corkFrames frames or
// corkBytes bytes.
const (
	corkFrames = 32
	corkBytes  = 64 << 10
)

// cork is a session's outgoing frames waiting for one SendMsgs, and the
// rounds whose buffers they lie in, released once the write returns. It
// lives on the session, so its slices are allocated once a session and
// reused by every request.
type cork struct {
	msgs    [][]byte
	answers []byte // the corked OT answers, back to back
	rounds  []*gc.Garbled
	// pool takes the held rounds back; nil on a precompute hit, whose
	// entry's rounds are dropped.
	pool  *gc.RoundPool
	bytes int
}

// add corks msg, which lives in a round already held or about to be.
func (c *cork) add(msg []byte) {
	if c.msgs == nil {
		c.msgs = make([][]byte, 0, corkFrames)
	}
	c.msgs = append(c.msgs, msg)
	c.bytes += len(msg)
}

// answer appends the answer to the OT of a round with sender pairs
// pairs to the cork's own buffer and returns it, for the cork to carry.
func (c *cork) answer(sender *ot.ExtensionSender, pairs []label.Pair) ([]byte, error) {
	start := len(c.answers)
	answers, err := ot.AppendAnswer(sender, c.answers, pairs)
	if err != nil {
		return nil, err
	}
	c.answers = answers // earlier corked answers keep the array they lie in
	return answers[start:], nil
}

// hold makes the cork release gb after the write that carries its
// frames.
func (c *cork) hold(gb *gc.Garbled) {
	if c.rounds == nil {
		c.rounds = make([]*gc.Garbled, 0, corkFrames)
	}
	c.rounds = append(c.rounds, gb)
}

// full reports whether the cork has reached a cap.
func (c *cork) full() bool { return len(c.msgs) >= corkFrames || c.bytes >= corkBytes }

// flush writes the corked frames in one SendMsgs, one writev on a
// stream conn, and releases their rounds whether or not it succeeds.
func (c *cork) flush(conn wire.Conn) error {
	if len(c.msgs) == 0 {
		return nil
	}
	err := conn.SendMsgs(c.msgs)
	c.drop()
	return err
}

// drop releases the held rounds and empties the cork without sending.
func (c *cork) drop() {
	for _, gb := range c.rounds {
		c.pool.Put(gb)
	}
	clear(c.msgs) // pin no round until the next request
	clear(c.rounds)
	c.msgs, c.answers, c.rounds, c.bytes = c.msgs[:0], c.answers[:0], c.rounds[:0], 0
}

// rowStreamer frames one request's rounds on the session goroutine
// into the session's cork. Every row's round j carries the same
// evaluator-input labels (one gc.Request), so only row 0's rounds run
// an OT, or in batched mode the first round alone; other rounds send
// material only. The cork is flushed before anything that may block — a
// lane queue with nothing ready, a u matrix not read ahead, the batched
// OT, the end of the request — and when it is full, so a frame never
// waits in it while the session goroutine waits.
type rowStreamer struct {
	sess *ServerSession
	ot   OTMode
	cork *cork
	wm   byteWatermark

	cols int // rounds per row
	n    int // rounds consumed so far
}

func newRowStreamer(sess *ServerSession, mode OTMode) *rowStreamer {
	return &rowStreamer{sess: sess, ot: mode, cork: &sess.cork}
}

// materialFrame frames one round's material where it was garbled: the
// material tag in the round's headroom, the header before its tables,
// the trailer behind them. Nothing is copied or allocated: every
// pooled round's buffer has room for the trailer.
func materialFrame(gb *gc.Garbled) []byte {
	f := gb.Frame()[gc.FrameHeadroom-1:]
	f[0] = tagMaterial
	return f
}

// corkPerRound corks a per-round row-0 round: its material, then the
// answer to its OT. The client sends u up to otLookahead rounds early,
// and a u matrix already read ahead is answered at once. Otherwise the
// cork, material included, is flushed before the read of u blocks, so
// a client that sends u only once the material has arrived is still
// served. The bytes on the wire are the same either way, and the cork
// ends on a round boundary whether this returns an error or not; it
// holds the round only on success.
func (st *rowStreamer) corkPerRound(gb *gc.Garbled) error {
	frame := materialFrame(gb)
	if !wire.FrameBuffered(st.sess.tc) {
		st.cork.add(frame)
		if err := st.flush(); err != nil {
			return err
		}
		frame = nil
	}
	answer, err := st.cork.answer(st.sess.sender, gb.EvalPairs)
	if err != nil {
		return err
	}
	if frame != nil {
		st.cork.add(frame)
	}
	st.cork.add(answer)
	st.cork.hold(gb)
	return nil
}

// consume frames one round into the cork, which releases it once the
// frame is written. Per-round mode streams a row-0 round's material and
// runs its OT at once. Batched mode runs the request's one OT over
// sess.pairs, filled by run, before the first round's frame: its OT
// must precede any material, and reads u, so the cork is flushed first.
// Every other round only streams its material. The watermark drops by
// a round's bytes once it is taken to be framed.
func (st *rowStreamer) consume(gb *gc.Garbled) error {
	st.wm.add(-int64(gb.Material.CiphertextBytes()))
	if err := st.frame(gb); err != nil {
		st.cork.pool.Put(gb)
		return err
	}
	return st.flushIfFull()
}

// frame corks gb's frames, and holds gb only on success.
func (st *rowStreamer) frame(gb *gc.Garbled) error {
	if st.n == 0 && st.ot == OTBatched {
		if err := st.flush(); err != nil {
			return err
		}
		if err := ot.SendLabels(st.sess.sender, st.sess.pairs); err != nil {
			return err
		}
	}
	row0 := st.n < st.cols
	st.n++
	if row0 && st.ot == OTPerRound {
		return st.corkPerRound(gb)
	}
	st.cork.add(materialFrame(gb))
	st.cork.hold(gb)
	return nil
}

// flush writes out the cork.
func (st *rowStreamer) flush() error { return st.cork.flush(st.sess.tc) }

// flushIfFull flushes the cork once it reaches a cap.
func (st *rowStreamer) flushIfFull() error {
	if !st.cork.full() {
		return nil
	}
	return st.flush()
}

// run streams one request: pre non-nil frames pooled material (a
// precompute hit never re-garbles, and charges the watermark nothing);
// otherwise the request draws its seed and garbles round by round on
// its lanes. A batched request's OT pairs come from the request key,
// or from a hit's row-0 rounds, before the first round. Deadlines
// and cancellation hold throughout: every wire operation runs under the
// rounds phase budget, and ctx is checked at every row.
func (st *rowStreamer) run(ctx context.Context, A [][]int64, workers int, pre []*maxsim.DotProductRun) error {
	defer func() {
		st.sess.ss.reg.Gauge("bytes_buffered_peak",
			"peak garbled-material bytes buffered between garbling and framing (last request)").
			Set(st.wm.peak.Load())
	}()
	defer st.sess.recyclePairs()
	st.cols = len(A[0])
	batched := st.ot == OTBatched

	if pre == nil {
		req, err := st.sess.srv.sim.NewRequest(st.cols)
		if err != nil {
			return err
		}
		if batched {
			st.sess.pairs = req.AppendEvalPairs(st.sess.pairs)
		}
		st.cork.pool = st.sess.srv.rounds
		if err := st.sess.garbleRows(ctx, req, A, workers, &st.wm, st.consume, st.flush); err != nil {
			return err
		}
		return st.flush()
	}
	st.cork.pool = nil
	if batched {
		for _, gb := range pre[0].Rounds {
			st.sess.pairs = append(st.sess.pairs, gb.EvalPairs...)
		}
	}
	for i, run := range pre {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("protocol: streaming interrupted at row %d: %w", i, err)
		}
		for _, gb := range run.Rounds {
			if err := st.consume(gb); err != nil {
				return err
			}
		}
	}
	return st.flush()
}

package protocol

// Streaming serve path. Production and transfer overlap: the garble
// lanes (parallel.go) queue each round as soon as it is garbled, and
// the session goroutine frames its material with one bulk copy
// (gc.AppendMaterial appends the round's table block, already in wire
// layout, to a wire.Arena buffer) and runs the OT, which only row 0's
// rounds carry (in batched mode, one OT before round 0's frame, over
// pairs the request key fixes). Round 0's frame therefore leaves while
// the rest of the row is still being garbled, the way MAXelerator's
// PCIe link drains each table while the FSM garbles the next. A
// precompute hit frames the entry's rounds in a plain loop. Frames are
// corked and leave in one write whenever the session goroutine would
// otherwise wait, or once the cork is full. The bytes on the wire are byte-identical to the
// buffered path at any lane count or queue depth — only the timing and
// the buffering change, which is what the bytes_buffered_peak gauge
// exists to prove.

import (
	"context"
	"fmt"
	"sync/atomic"

	"maxelerator/internal/gc"
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
// arena buffers they live in, freed once the write returns. It lives on
// the session, so its slices are allocated once a session and reused by
// every request.
type cork struct {
	msgs  [][]byte
	bufs  []*wire.Buf
	bytes int
}

// add corks msg, which lives in a buffer already held or about to be.
func (c *cork) add(msg []byte) {
	if c.msgs == nil {
		c.msgs = make([][]byte, 0, corkFrames)
	}
	c.msgs = append(c.msgs, msg)
	c.bytes += len(msg)
}

// hold makes the cork free b after the write that carries its frames.
func (c *cork) hold(b *wire.Buf) {
	if c.bufs == nil {
		c.bufs = make([]*wire.Buf, 0, corkFrames)
	}
	c.bufs = append(c.bufs, b)
}

// full reports whether the cork has reached a cap.
func (c *cork) full() bool { return len(c.msgs) >= corkFrames || c.bytes >= corkBytes }

// flush writes the corked frames in one SendMsgs, one writev on a
// stream conn, and frees their buffers whether or not it succeeds.
func (c *cork) flush(conn wire.Conn) error {
	if len(c.msgs) == 0 {
		return nil
	}
	err := conn.SendMsgs(c.msgs)
	c.drop()
	return err
}

// drop frees the held buffers and empties the cork without sending.
func (c *cork) drop() {
	for _, b := range c.bufs {
		b.Free()
	}
	clear(c.msgs) // pin no buffer until the next request
	clear(c.bufs)
	c.msgs, c.bufs, c.bytes = c.msgs[:0], c.bufs[:0], 0
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
	// rounds takes back each inline round once it is framed and its OT
	// is done; nil on a precompute hit, whose entry's rounds are dropped.
	rounds *gc.RoundPool

	cols     int  // rounds per row
	n        int  // rounds consumed so far
	reserved bool // the arena holds the cork's buffers for this request
}

func newRowStreamer(sess *ServerSession, mode OTMode) *rowStreamer {
	return &rowStreamer{sess: sess, ot: mode, cork: &sess.cork}
}

// frameMaterial assembles one round's garbled material behind the
// material tag in a pooled arena buffer: the round's table block is
// copied in whole, nothing is allocated. Every buffer has room for the
// round's OT answer behind the material, whether or not the round runs
// one, so that the arena's buffers all fit every round.
func (st *rowStreamer) frameMaterial(gb *gc.Garbled) (*wire.Buf, error) {
	m := &gb.Material
	size, err := gc.MaterialSize(m)
	if err != nil {
		return nil, err
	}
	size += 1 + 32*len(gb.EvalPairs)
	if !st.reserved { // the request's first frame: as many buffers as the cork may hold
		st.sess.srv.arena.Reserve(min(corkFrames, corkBytes/size+2), size)
		st.reserved = true
	}
	buf := st.sess.srv.arena.Get(size)
	buf.B = append(buf.B, tagMaterial)
	if buf.B, err = gc.AppendMaterial(buf.B, m); err != nil {
		buf.Free()
		return nil, err
	}
	return buf, nil
}

// corkMaterial corks one round's material frame.
func (st *rowStreamer) corkMaterial(gb *gc.Garbled) error {
	buf, err := st.frameMaterial(gb)
	if err != nil {
		return err
	}
	st.cork.hold(buf)
	st.cork.add(buf.B)
	return nil
}

// corkPerRound corks a per-round row-0 round: its material, then the
// answer to its OT, appended to the same arena buffer. The client sends
// u up to otLookahead rounds early, and a u matrix already read ahead
// is answered at once. Otherwise the cork, material included, is
// flushed before the read of u blocks, so a client that sends u only
// once the material has arrived is still served. The bytes on the wire
// are the same either way, and the cork ends on a round boundary
// whether this returns an error or not.
func (st *rowStreamer) corkPerRound(gb *gc.Garbled) error {
	buf, err := st.frameMaterial(gb)
	if err != nil {
		return err
	}
	mat := len(buf.B)
	ahead := wire.FrameBuffered(st.sess.tc)
	if !ahead {
		st.cork.add(buf.B)
		err = st.flush()
	}
	if err == nil {
		buf.B, err = ot.AppendAnswer(st.sess.sender, buf.B, gb.EvalPairs)
	}
	if err != nil {
		buf.Free()
		return err
	}
	if ahead {
		st.cork.add(buf.B[:mat])
	}
	st.cork.hold(buf)
	st.cork.add(buf.B[mat:])
	return nil
}

// consume frames one round into the cork, then releases it. Per-round
// mode streams a row-0 round's material and runs its OT at once.
// Batched mode runs the request's one OT over sess.pairs, filled by
// run, before the first round's frame: its OT must precede any
// material, and reads u, so the cork is flushed first. Every other
// round only streams its material. The watermark drops by a round's
// bytes once it is framed.
func (st *rowStreamer) consume(gb *gc.Garbled) error {
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
	var err error
	if row0 && st.ot == OTPerRound {
		err = st.corkPerRound(gb)
	} else {
		err = st.corkMaterial(gb)
	}
	if err != nil {
		return err
	}
	st.release(gb)
	return st.flushIfFull()
}

// release credits a framed round's bytes to the watermark and hands the
// round back.
func (st *rowStreamer) release(gb *gc.Garbled) {
	st.wm.add(-int64(gb.Material.CiphertextBytes()))
	st.rounds.Put(gb)
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
		st.rounds = st.sess.srv.rounds
		if err := st.sess.garbleRows(ctx, req, A, workers, &st.wm, st.consume, st.flush); err != nil {
			return err
		}
		return st.flush()
	}
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

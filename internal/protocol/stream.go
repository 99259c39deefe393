package protocol

// Streaming serve path. Production and transfer overlap: the garble
// lanes (parallel.go) queue each round as soon as it is garbled, and
// the session goroutine frames its material with one bulk copy
// (gc.AppendMaterial appends the round's table block, already in wire
// layout, to a wire.Arena buffer; one SendMsg per frame) and runs the
// OT, which only row 0's rounds carry. Round 0's frame therefore
// leaves while the rest of the row is still being garbled (in batched
// mode, once row 0 is garbled and its one OT done), the way
// MAXelerator's PCIe link drains each table while the FSM garbles the
// next. A precompute hit frames the entry's rounds in a plain loop.
// The bytes on the wire are byte-identical to the buffered path at any
// lane count or queue depth — only the timing and the buffering
// change, which is what the bytes_buffered_peak gauge exists to prove.

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

// rowStreamer frames one request's rounds on the session goroutine.
// Every row's round j carries the same evaluator-input labels (one
// gc.Request), so only row 0's rounds run an OT; later rows send
// material alone.
type rowStreamer struct {
	sess *ServerSession
	ot   OTMode
	fw   *wire.FrameWriter
	wm   byteWatermark
	// rounds takes back each inline round once it is framed and its OT
	// is done; nil on a precompute hit, whose entry's rounds are dropped.
	rounds *gc.RoundPool

	cols int           // rounds per row
	n    int           // rounds consumed so far
	held []*gc.Garbled // batched mode: row 0's rounds, held for the one OT
}

func newRowStreamer(sess *ServerSession, mode OTMode) *rowStreamer {
	return &rowStreamer{sess: sess, ot: mode, fw: wire.NewFrameWriter(sess.tc, sess.srv.arena)}
}

// sendMaterialFramed ships one round's garbled material behind the
// material tag, assembling the frame in a pooled arena buffer: the
// round's table block is copied in whole, nothing is allocated. The
// watermark drops by the round's bytes once they are on the wire.
func (st *rowStreamer) sendMaterialFramed(gb *gc.Garbled) error {
	m := &gb.Material
	size, err := gc.MaterialSize(m)
	if err != nil {
		return err
	}
	buf := st.fw.Begin(1 + size)
	buf.B = append(buf.B, tagMaterial)
	if buf.B, err = gc.AppendMaterial(buf.B, m); err != nil {
		buf.Free()
		return err
	}
	if err := st.fw.Send(buf); err != nil {
		return err
	}
	st.wm.add(-int64(m.CiphertextBytes()))
	return nil
}

// consume frames and transfers one round, then releases it. A round of
// row 1 or later only streams its material. Per-round mode streams a
// row-0 round's material and runs its OT at once. Batched mode holds
// row 0's rounds until the last arrives, runs the request's one OT over
// their pairs, and frames them (sendHeld): its OT must precede any
// material, and row 0's pairs are every row's.
func (st *rowStreamer) consume(gb *gc.Garbled) error {
	row0 := st.n < st.cols
	st.n++
	if row0 && st.ot == OTBatched {
		st.held = append(st.held, gb)
		if len(st.held) < st.cols {
			return nil
		}
		return st.sendHeld()
	}
	if err := st.sendMaterialFramed(gb); err != nil {
		return err
	}
	if row0 {
		if err := ot.SendLabels(st.sess.sender, gb.EvalPairs); err != nil {
			return err
		}
	}
	st.rounds.Put(gb)
	return nil
}

// sendHeld is a batched request's one OT over the held rounds' pairs,
// copied in round order, then the held rounds' frames.
func (st *rowStreamer) sendHeld() error {
	for _, gb := range st.held {
		st.sess.pairs = append(st.sess.pairs, gb.EvalPairs...)
	}
	err := ot.SendLabels(st.sess.sender, st.sess.pairs)
	st.sess.recyclePairs()
	if err != nil {
		return err
	}
	for _, gb := range st.held {
		if err := st.sendMaterialFramed(gb); err != nil {
			return err
		}
		st.rounds.Put(gb)
	}
	return nil
}

// run streams one request: pre non-nil frames pooled material (a
// precompute hit never re-garbles, and charges the watermark nothing);
// otherwise the request garbles round by round on its lanes. Deadlines
// and cancellation hold throughout: every wire operation runs under the
// rounds phase budget, and ctx is checked at every row.
func (st *rowStreamer) run(ctx context.Context, A [][]int64, workers int, pre []*maxsim.DotProductRun) error {
	defer func() {
		st.sess.ss.reg.Gauge("bytes_buffered_peak",
			"peak garbled-material bytes buffered between garbling and wire transfer (last request)").
			Set(st.wm.peak.Load())
	}()
	st.cols = len(A[0])
	keep := 0
	if st.ot == OTBatched {
		st.held = make([]*gc.Garbled, 0, st.cols)
		keep = st.cols // row 0's rounds wait for the OT
	}

	if pre == nil {
		st.rounds = st.sess.srv.rounds
		return st.sess.garbleRows(ctx, A, workers, keep, &st.wm, st.consume)
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
	return nil
}

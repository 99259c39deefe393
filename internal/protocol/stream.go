package protocol

// Streaming serve path. Production and transfer overlap: the garble
// lanes (parallel.go) queue each round as soon as it is garbled, and
// the session goroutine frames its material with one bulk copy
// (gc.AppendMaterial appends the round's table block, already in wire
// layout, to a wire.Arena buffer; one SendMsg per frame) and runs the
// per-round OT. Round 0's frame therefore leaves while the rest of the
// row is still being garbled, the way MAXelerator's PCIe link drains
// each table while the FSM garbles the next. A precompute hit frames
// the entry's rounds in a plain loop. The bytes on the wire are
// byte-identical to the buffered path at any lane count or queue depth
// — only the timing and the buffering change, which is what the
// bytes_buffered_peak gauge exists to prove.

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
type rowStreamer struct {
	sess *ServerSession
	ot   OTMode
	fw   *wire.FrameWriter
	wm   byteWatermark
	// rounds takes back each inline round once it is framed and its OT
	// is done; nil on a precompute hit, whose entry's rounds are dropped.
	rounds *gc.RoundPool

	deferred []*gc.Garbled // batched mode: material deferred past the OT
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

// consume frames and transfers one round. Per-round mode streams its
// material and runs its OT immediately, then releases the round;
// batched mode only accumulates (its one OT must precede any material,
// so transfer waits for the tail — the honest O(request) case the
// watermark exposes) and releases each round once its deferred frame is
// sent. The OT's pairs are copied for the batch, so the frame is the
// last use of a deferred round.
func (st *rowStreamer) consume(gb *gc.Garbled) error {
	if st.ot == OTBatched {
		st.deferred = append(st.deferred, gb)
		st.sess.pairs = append(st.sess.pairs, gb.EvalPairs...)
		return nil
	}
	if err := st.sendMaterialFramed(gb); err != nil {
		return err
	}
	if err := ot.SendLabels(st.sess.sender, gb.EvalPairs); err != nil {
		return err
	}
	st.rounds.Put(gb)
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
	if st.ot == OTBatched {
		st.deferred = make([]*gc.Garbled, 0, len(A)*len(A[0]))
	}

	if pre == nil {
		st.rounds = st.sess.srv.rounds
		keep := 0
		if st.ot == OTBatched {
			keep = len(A) * len(A[0]) // every round waits for the batch's OT
		}
		if err := st.sess.garbleRows(ctx, A, workers, keep, &st.wm, st.consume); err != nil {
			return err
		}
	}
	for i, run := range pre { // a hit; nothing when the request garbled
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("protocol: streaming interrupted at row %d: %w", i, err)
		}
		for _, gb := range run.Rounds {
			if err := st.consume(gb); err != nil {
				return err
			}
		}
	}

	if st.ot == OTBatched {
		err := ot.SendLabels(st.sess.sender, st.sess.pairs)
		st.sess.recyclePairs()
		if err != nil {
			return err
		}
		for _, gb := range st.deferred {
			if err := st.sendMaterialFramed(gb); err != nil {
				return err
			}
			st.rounds.Put(gb)
		}
	}
	return nil
}

package protocol

// Streaming serve pipeline (the PR 8 hot path). The matvec datapath
// used to garble every row, buffer each table into its own []byte, and
// only then stream — the evaluator idled during garbling and peak
// memory scaled with the request. Here production and transfer overlap:
// a producer yields chunks — runs of consecutive garbled rounds of one
// row — through a bounded pipeline.Stream into a consumer that frames
// material with one bulk copy per round (gc.AppendMaterial appends the
// round's table block, already in wire layout, to a wire.Arena buffer;
// one SendMsg per frame) and runs the per-round OT. Garbling yields
// every round as soon as it is garbled, at every lane count, so round
// 0's frame leaves while the rest of the row is still being garbled,
// the way MAXelerator's PCIe link drains each table while the FSM
// garbles the next; the precompute pool replay yields whole rows. The
// bytes on the wire are byte-identical to the buffered path at any lane
// count or pipeline depth — only the timing and the buffering change,
// which is what the bytes_buffered_peak gauge exists to prove.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"maxelerator/internal/gc"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/pipeline"
	"maxelerator/internal/wire"
)

// pipeDepth is the serve pipeline's buffer in rows: how many garbled
// rows may sit between the producer and the wire at once. The channel
// holds pipeDepth chunks when chunks are whole rows and pipeDepth·Cols
// when they are single rounds, so the bound is the same either way.
// With the garble lanes' one-row queues it bounds per-request buffering
// to lanes − 1 queued rows, pipeDepth rows and one row in progress per
// lane, not O(rows). A variable only so the transcript property test
// can sweep it (set while no session is in flight, like
// garbleTestHook); the wire bytes must not depend on it.
var pipeDepth = 2

// errStreamAborted is the producer's return when the consumer bailed
// first. It never escapes serveRows: pipeline.Stream reports the
// consumer's error in that case.
var errStreamAborted = errors.New("protocol: row stream aborted by consumer")

// rowChunk is a run of consecutive garbled rounds of one row in flight
// between garbling and framing: one round from a garble lane, a whole
// row from a precompute hit.
type rowChunk []*gc.Garbled

// tableBytes is the garbled-table volume of the chunk's rounds.
func (c rowChunk) tableBytes() int64 {
	var n int
	for _, gb := range c {
		n += gb.Material.CiphertextBytes()
	}
	return int64(n)
}

// byteWatermark tracks bytes currently buffered between production and
// transfer, with a high-water mark. Producer and consumer update it
// from different goroutines.
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

// rowStreamer is the consumer state of one request's serve pipeline.
type rowStreamer struct {
	sess *ServerSession
	ot   OTMode
	fw   *wire.FrameWriter
	wm   byteWatermark
	// chunks counts chunks through the serve pipeline.
	chunks *obs.Counter
	// wait is the producer's time blocked on a full pipeline. Written by
	// the producer goroutine, read after pipeline.Stream has reaped it.
	wait time.Duration

	deferred []rowChunk // batched mode: material deferred past the OT
}

func newRowStreamer(sess *ServerSession, mode OTMode) *rowStreamer {
	return &rowStreamer{
		sess: sess,
		ot:   mode,
		fw:   wire.NewFrameWriter(sess.tc, sess.srv.arena),
		chunks: sess.ss.reg.Counter("pipeline_chunks_total",
			"chunks (runs of consecutive garbled rounds of one row) streamed through the serve pipeline"),
	}
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

// offer accounts a chunk as buffered and hands it to the pipeline,
// timing how long a full pipeline held the producer back.
func (st *rowStreamer) offer(yield func(rowChunk) bool, c rowChunk) bool {
	st.wm.add(c.tableBytes())
	t0 := time.Now()
	ok := yield(c)
	st.wait += time.Since(t0)
	return ok
}

// consume frames and transfers one chunk. Per-round mode streams each
// round's material and runs its OT immediately; batched mode only
// accumulates (its one OT must precede any material, so transfer waits
// for the tail — the honest O(request) case the watermark exposes).
func (st *rowStreamer) consume(c rowChunk) error {
	st.chunks.Inc()
	if st.ot == OTBatched {
		st.deferred = append(st.deferred, c)
		for _, gb := range c {
			st.sess.pairs = append(st.sess.pairs, gb.EvalPairs...)
		}
		return nil
	}
	for _, gb := range c {
		if err := st.sendMaterialFramed(gb); err != nil {
			return err
		}
		if err := ot.SendLabels(st.sess.sender, gb.EvalPairs); err != nil {
			return err
		}
	}
	return nil
}

// run drives the pipeline for one request: pre non-nil replays pooled
// material straight into the stream (a precompute hit never re-garbles);
// otherwise the request garbles round by round on its lanes.
// Deadlines and cancellation hold at every stage — the consumer's wire
// operations run under the rounds phase budget, the producer checks ctx
// at every chunk it yields, and a producer panic is contained exactly
// like a helper lane's.
func (st *rowStreamer) run(ctx context.Context, A [][]int64, workers int, pre []*maxsim.DotProductRun) error {
	ss := st.sess.ss
	defer func() {
		ss.reg.Gauge("bytes_buffered_peak",
			"peak garbled-material bytes buffered between garbling and wire transfer (last request)").
			Set(st.wm.peak.Load())
	}()

	produce := func(yield func(rowChunk) bool) error {
		emit := func(c rowChunk) error {
			if st.offer(yield, c) {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			return errStreamAborted
		}
		if pre == nil {
			return st.sess.garbleRows(ctx, A, workers, emit)
		}
		for i, run := range pre {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("protocol: streaming interrupted at row %d: %w", i, err)
			}
			if err := emit(run.Rounds); err != nil {
				return err
			}
		}
		return nil
	}

	depth := pipeDepth
	if pre == nil {
		depth *= len(A[0]) // garbling yields single rounds
	}
	err := pipeline.Stream(ctx, depth, produce, st.consume)
	if pre == nil {
		ss.tr.SetAttr("garble_wait_ms", fmt.Sprintf("%.3f", st.wait.Seconds()*1e3))
	}
	if err != nil {
		var pe *pipeline.PanicError
		if errors.As(err, &pe) {
			return recoveredPanicStack(ss.reg, pe.Value, pe.Stack)
		}
		return err
	}

	if st.ot == OTBatched {
		err := ot.SendLabels(st.sess.sender, st.sess.pairs)
		st.sess.recyclePairs()
		if err != nil {
			return err
		}
		for _, c := range st.deferred {
			for _, gb := range c {
				if err := st.sendMaterialFramed(gb); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

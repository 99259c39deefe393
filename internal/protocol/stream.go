package protocol

// Streaming serve pipeline (the PR 8 hot path). The matvec datapath
// used to garble every row, buffer each table into its own []byte, and
// only then stream — the evaluator idled during garbling and peak
// memory scaled with the request. Here production and transfer overlap:
// a producer (the garble pool's in-order reorder stage, or the
// precompute pool replay) yields garbled-row chunks through a bounded
// pipeline.Stream into a consumer that frames material with one bulk
// copy per round (gc.AppendMaterial appends the round's table block,
// already in wire layout, to a wire.Arena buffer; one SendMsg per frame)
// and runs the per-round OT. The bytes on the wire are
// byte-identical to the buffered path at any pool size or pipeline
// depth — only the timing and the buffering change, which is what the
// bytes_buffered_peak gauge exists to prove.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"maxelerator/internal/gc"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/pipeline"
	"maxelerator/internal/wire"
)

// pipeDepth is the serve pipeline's chunk buffer: how many garbled rows
// may sit between the producer and the wire at once. Together with the
// garble pool's admission window it bounds per-request buffering to
// O(workers + pipeDepth) rows instead of O(rows). A variable only so
// the transcript property test can sweep it (set while no session is
// in flight, like garbleTestHook); the wire bytes must not depend on
// it.
var pipeDepth = 2

// errStreamAborted is the producer's return when the consumer bailed
// first. It never escapes serveRows: pipeline.Stream reports the
// consumer's error in that case.
var errStreamAborted = errors.New("protocol: row stream aborted by consumer")

// rowChunk is one garbled row in flight between garbling and framing.
type rowChunk struct {
	idx int
	run *maxsim.DotProductRun
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

// sendMaterialFramed ships one round's garbled material behind the
// material tag, assembling the frame in a pooled arena buffer: the
// round's table block is copied in whole, nothing is allocated.
func sendMaterialFramed(fw *wire.FrameWriter, m *gc.Material) error {
	size, err := gc.MaterialSize(m)
	if err != nil {
		return err
	}
	buf := fw.Begin(1 + size)
	buf.B = append(buf.B, tagMaterial)
	if buf.B, err = gc.AppendMaterial(buf.B, m); err != nil {
		buf.Free()
		return err
	}
	return fw.Send(buf)
}

// rowStreamer is the consumer state of one request's serve pipeline.
type rowStreamer struct {
	sess *ServerSession
	ot   OTMode
	fw   *wire.FrameWriter
	wm   byteWatermark
	// chunks counts garbled-row chunks through the serve pipeline.
	chunks *obs.Counter

	agg  Stats
	runs []*maxsim.DotProductRun // batched mode: material deferred past the OT
}

func newRowStreamer(sess *ServerSession, mode OTMode) *rowStreamer {
	return &rowStreamer{
		sess: sess,
		ot:   mode,
		fw:   wire.NewFrameWriter(sess.conn, sess.srv.arena),
		chunks: sess.ss.reg.Counter("pipeline_chunks_total",
			"garbled-row chunks streamed through the serve pipeline"),
	}
}

// offer accounts a chunk as buffered and hands it to the pipeline.
func (st *rowStreamer) offer(yield func(rowChunk) bool, i int, run *maxsim.DotProductRun) bool {
	st.wm.add(int64(run.Stats.TableBytes))
	return yield(rowChunk{idx: i, run: run})
}

// consume frames and transfers one garbled row. Per-round mode streams
// material and runs that row's OT immediately; batched mode only
// accumulates (its one OT must precede any material, so transfer waits
// for the tail — the honest O(request) case the watermark exposes).
func (st *rowStreamer) consume(c rowChunk) error {
	st.chunks.Inc()
	st.agg.Add(c.run.Stats)
	if st.ot == OTBatched {
		st.runs = append(st.runs, c.run)
		for _, gb := range c.run.Rounds {
			st.sess.pairs = append(st.sess.pairs, gb.EvalPairs...)
		}
		return nil
	}
	for _, gb := range c.run.Rounds {
		if err := sendMaterialFramed(st.fw, &gb.Material); err != nil {
			return err
		}
		if err := ot.SendLabels(st.sess.sender, gb.EvalPairs); err != nil {
			return err
		}
	}
	st.wm.add(-int64(c.run.Stats.TableBytes))
	return nil
}

// run drives the pipeline for one request: pre non-nil replays pooled
// material straight into the stream (a precompute hit never re-garbles);
// otherwise the garble pool produces. Deadlines and cancellation hold
// at every stage — the consumer's wire operations run under the rounds
// phase budget, the producer checks ctx between rows, and a producer
// panic is contained exactly like a worker panic.
func (st *rowStreamer) run(ctx context.Context, A [][]int64, workers int, pre []*maxsim.DotProductRun) error {
	ss := st.sess.ss
	defer func() {
		ss.reg.Gauge("bytes_buffered_peak",
			"peak garbled-material bytes buffered between garbling and wire transfer (last request)").
			Set(st.wm.peak.Load())
	}()

	produce := func(yield func(rowChunk) bool) error {
		if pre != nil {
			for i, run := range pre {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("protocol: streaming interrupted at row %d: %w", i, err)
				}
				if !st.offer(yield, i, run) {
					return ctx.Err() // nil when the consumer failed; Stream reports its error
				}
			}
			return nil
		}
		return st.sess.garbleRows(ctx, A, workers, func(i int, run *maxsim.DotProductRun) error {
			if !st.offer(yield, i, run) {
				if err := ctx.Err(); err != nil {
					return err
				}
				return errStreamAborted
			}
			return nil
		})
	}

	if err := pipeline.Stream(ctx, pipeDepth, produce, st.consume); err != nil {
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
		for _, run := range st.runs {
			for _, gb := range run.Rounds {
				if err := sendMaterialFramed(st.fw, &gb.Material); err != nil {
					return err
				}
			}
			st.wm.add(-int64(run.Stats.TableBytes))
		}
	}
	return nil
}

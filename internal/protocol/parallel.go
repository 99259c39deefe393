package protocol

// Parallel row garbling. Matrix rows are independent MAC chains, so
// they can be garbled concurrently — the paper's parallel-GC-core
// argument lifted to the host: table *generation* is the compute-bound
// phase, streaming is not. A pool of workers each owns a private fork
// of the server's simulator (fresh free-XOR offset and labels per
// worker, fresh run per row, exactly as the sequential path; the
// compiled netlist is shared read-only), and a reorder stage emits
// completed rows strictly in row order, so the bytes on the wire — and
// the client's round-by-round evaluation — are identical whatever the
// pool size.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/gc"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
)

// lockedReader serializes reads of a shared randomness source so the
// garbling workers can draw from one cfg.Rand concurrently. The
// default crypto/rand reader is already safe, but deterministic test
// readers generally are not.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (lr *lockedReader) Read(p []byte) (int, error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.r.Read(p)
}

// garbleResult carries one garbled row from a worker to the reorder
// stage.
type garbleResult struct {
	idx int
	run *maxsim.DotProductRun
	err error
}

// garblesInline reports whether a request of rows rows garbles on the
// producer goroutine itself, one round at a time, rather than on the
// worker pool: always for one row, whatever the pool size.
func garblesInline(workers, rows int) bool { return min(workers, rows) <= 1 }

// garbleRows garbles every row of A and hands the rounds to emit in
// strict row and round order. Inline garbling (see garblesInline; one
// simulator fork per request) emits each round as soon as it is
// garbled; the pool garbles up to `workers` rows concurrently and emits
// whole rows. Either way the row's Stats ride on its last chunk.
// Context cancellation stops the inline path between rounds (through
// emit) and the pool between rows — in-flight rows finish (a garbling
// is CPU work with no wire waits) but no new row starts.
func (sess *ServerSession) garbleRows(ctx context.Context, A [][]int64, workers int, emit func(rowChunk) error) error {
	n := len(A)
	ss := sess.ss
	if garblesInline(workers, n) {
		// The pool-size gauge reflects the effective pool of the current
		// request — including the inline (size 1) path, so it no longer
		// reads as whatever the last pooled request used.
		ss.reg.Gauge("garble_workers", "row-garbling worker pool size").Set(1)
		sim, err := sess.srv.sim.Fork(sess.srv.sim.Config().Rand)
		if err != nil {
			return err
		}
		for i, row := range A {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("protocol: garbling interrupted at row %d: %w", i, err)
			}
			if err := streamRow(ss, sim, i, row, emit); err != nil {
				return err
			}
		}
		return nil
	}
	workers = min(workers, n)

	reg := ss.reg
	queue := reg.Gauge("garble_queue_depth", "matrix rows waiting for a garbling worker")
	busy := reg.Gauge("garble_workers_busy", "garbling workers currently running a row")
	reg.Gauge("garble_workers", "row-garbling worker pool size").Set(int64(workers))
	rowSeconds := reg.Histogram("garble_row_seconds", "wall time to garble one matrix row", nil)
	rowsTotal := reg.Counter("garble_rows_total", "matrix rows garbled by the worker pool")

	// One fork per worker: every worker garbles under its own fresh
	// free-XOR offset and working memory, and nothing mutable is shared
	// except the randomness source, which gets a lock.
	rnd := &lockedReader{r: sess.srv.sim.Config().Rand}
	sims := make([]*maxsim.Simulator, workers)
	for w := range sims {
		sim, err := sess.srv.sim.Fork(rnd)
		if err != nil {
			return err
		}
		sims[w] = sim
	}

	// jobs is pre-filled and closed; done is buffered to n (cheap
	// struct slots) so workers never block on a stalled consumer. stop
	// makes workers quit without garbling once any side has failed.
	//
	// tickets is the admission window: a worker takes a ticket BEFORE
	// pulling a row index and the reorder stage returns it when that
	// row is emitted downstream, so rows garbled-but-not-yet-streamed
	// are bounded by the window — pool memory is O(workers + pipeDepth),
	// not O(rows), however slow the wire is. Acquiring before pulling
	// keeps the in-flight rows a contiguous index block starting at
	// `next`, so the reorder stage can always emit and recycle a
	// ticket; acquiring after pulling could strand row `next` behind
	// the window and deadlock.
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	queue.Add(int64(n))
	done := make(chan garbleResult, n)
	window := workers + pipeDepth
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}
	stopCh := make(chan struct{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sim *maxsim.Simulator) {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				case <-tickets:
				}
				i, ok := <-jobs
				if !ok {
					return
				}
				queue.Add(-1)
				if stop.Load() || ctx.Err() != nil {
					return
				}
				busy.Add(1)
				t0 := time.Now()
				run, err := safeGarbleRow(ss, sim, i, A[i])
				rowSeconds.Observe(time.Since(t0).Seconds())
				busy.Add(-1)
				if err == nil {
					// Only rows that actually produced garbled material
					// count; failed rows used to inflate the total.
					rowsTotal.Inc()
				}
				done <- garbleResult{idx: i, run: run, err: err}
				if err != nil {
					stop.Store(true)
				}
			}
		}(sims[w])
	}
	defer func() {
		stop.Store(true)
		close(stopCh) // wake workers blocked on the admission window
		wg.Wait()
		for range jobs {
			queue.Add(-1) // rows never pulled; zero the depth gauge
		}
	}()

	// Reorder stage: workers finish rows in any order; emit strictly
	// in row order so the wire format matches the sequential path.
	// Cancellation unblocks the wait even though workers never block on
	// done (it is buffered to n): the pool drains via the deferred stop.
	pending := make(map[int]*maxsim.DotProductRun, workers)
	next := 0
	for received := 0; received < n; received++ {
		var r garbleResult
		select {
		case r = <-done:
		case <-ctx.Done():
			return fmt.Errorf("protocol: garbling interrupted after %d of %d rows: %w", next, n, ctx.Err())
		}
		if r.err != nil {
			return r.err
		}
		pending[r.idx] = r.run
		for {
			run, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := emit(rowChunk{rounds: run.Rounds, stats: &run.Stats}); err != nil {
				return err
			}
			next++
			tickets <- struct{}{} // row left the pool: reopen the window
		}
	}
	if next != n {
		return fmt.Errorf("protocol: garble pool emitted %d of %d rows", next, n)
	}
	return nil
}

// safeGarbleRow is garbleRow behind a recover(): a panic inside one
// worker's garbling becomes that row's error result, so the reorder
// stage fails the request cleanly instead of the panic killing the
// process (a goroutine panic is not catchable from the session
// goroutine's own recover).
func safeGarbleRow(ss *session, sim *maxsim.Simulator, i int, row []int64) (run *maxsim.DotProductRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, recoveredPanic(ss.reg, r)
		}
	}()
	return garbleRow(ss, sim, i, row)
}

// garbleTestHook, when non-nil, runs before each row garbling — the
// fault-injection seam the panic-containment tests use. Set and
// cleared only while no session is in flight.
var garbleTestHook func(row int)

// garbleRoundTestHook, when non-nil, runs on the inline path after each
// round but the row's last is handed to the pipeline, before the next
// round is garbled — the seam the early-frame test blocks on. Set and
// cleared only while no session is in flight.
var garbleRoundTestHook func(row, round int)

// startRow runs the test hook and opens row i's trace span (capped at
// maxRowSpans spans per session).
func startRow(ss *session, i int) *obs.Span {
	if garbleTestHook != nil {
		garbleTestHook(i)
	}
	if i >= maxRowSpans {
		return nil
	}
	return ss.tr.StartSpan(fmt.Sprintf("round_garble[%d]", i))
}

// garbleRow garbles one whole row under its trace span.
func garbleRow(ss *session, sim *maxsim.Simulator, i int, row []int64) (*maxsim.DotProductRun, error) {
	defer startRow(ss, i).End()
	return sim.GarbleDotProduct(row)
}

// streamRow garbles one row under its trace span and hands each round
// to emit as soon as it is garbled, the last one with the row's Stats.
// The span therefore also covers the time emit blocked on a full
// pipeline. The chunks are windows of one per-row slice, so streaming
// a round allocates nothing.
func streamRow(ss *session, sim *maxsim.Simulator, i int, row []int64, emit func(rowChunk) error) error {
	defer startRow(ss, i).End()
	rounds := make([]*gc.Garbled, 0, len(row))
	last := len(row) - 1
	st, err := sim.GarbleDotProductRounds(row, func(r int, gb *gc.Garbled) error {
		rounds = append(rounds, gb)
		if r == last {
			return nil // leaves below, with the row's Stats
		}
		if err := emit(rowChunk{rounds: rounds[r : r+1]}); err != nil {
			return err
		}
		if garbleRoundTestHook != nil {
			garbleRoundTestHook(i, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return emit(rowChunk{rounds: rounds[last:], stats: &st})
}

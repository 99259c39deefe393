package protocol

// Parallel row garbling. Matrix rows are independent MAC chains of
// equal cost, so they are garbled on a static stripe (garbleRows), the
// way the paper's FSM assigns each GC core its work and the client's
// rowHelpers evaluate them. A request is one gc.Request — one seed, one
// Δ, row-indexed labels and tweaks — and every lane garbles its rows on
// its own gc.Lane of it, so a row's bytes depend on its index alone,
// and rounds leave strictly in row order: the wire bytes do not depend
// on the lane count.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"maxelerator/internal/gc"
)

// garbleRows garbles every row of A and hands the rounds to emit in
// strict row and round order, one round per chunk. Rows are striped
// over lanes = min(workers, rows) lanes: lane 0 is the caller, the
// pipeline's producer, garbling its rows straight into emit; lane h ≥ 1
// is a goroutine garbling its rows into a queue that holds one row,
// which the caller relays when each row's turn comes. With one lane no
// goroutine starts. A helper lane's panic becomes its error;
// cancellation stops every lane at its next round. No lane outlives the
// call.
func (sess *ServerSession) garbleRows(ctx context.Context, A [][]int64, workers int, emit func(rowChunk) error) error {
	n, cols, ss, sim := len(A), len(A[0]), sess.ss, sess.srv.sim
	lanes := max(1, min(workers, n))
	ss.reg.Gauge("garble_workers", "row-garbling lanes of the last request").Set(int64(lanes))
	rowSeconds := ss.reg.Histogram("garble_row_seconds", "wall time to garble one matrix row, back-pressure included", nil)
	rowsTotal := ss.reg.Counter("garble_rows_total", "matrix rows garbled")

	req, err := sim.NewRequest(cols)
	if err != nil {
		return err
	}
	rowStats := sim.Account(cols)
	garble := func(lane *gc.Lane, i int, out func(rowChunk) error) error {
		t0 := time.Now()
		err := streamRow(ss, lane, i, A[i], out)
		rowSeconds.Observe(time.Since(t0).Seconds())
		if err == nil {
			rowsTotal.Inc()
			sim.Count(rowStats)
		}
		return err
	}

	// Helper lane h's queue and error; errs[h] is set before queues[h] closes.
	queues := make([]chan rowChunk, lanes)
	errs := make([]error, lanes)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for h := 1; h < lanes; h++ {
		q := make(chan rowChunk, cols) // one row: the lane's memory bound
		queues[h] = q
		send := func(c rowChunk) error {
			select {
			case q <- c:
				return nil
			case <-stop:
				return errStreamAborted
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					errs[h] = recoveredPanic(ss.reg, r)
				}
				close(q)
				wg.Done()
			}()
			lane := req.Lane()
			for i := h; i < n && errs[h] == nil; i += lanes {
				errs[h] = garble(lane, i, send)
			}
		}()
	}

	// row hands row i to emit: lane 0 garbles it in place, a helper's
	// cols rounds are relayed from its queue, which closes before the
	// row ends only on error.
	lane0 := req.Lane()
	row := func(i int) error {
		h := i % lanes
		if h == 0 {
			return garble(lane0, i, emit)
		}
		for range cols {
			c, ok := <-queues[h]
			if !ok {
				return errs[h]
			}
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range A {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("protocol: garbling interrupted at row %d: %w", i, err)
		}
		if err := row(i); err != nil {
			return err
		}
	}
	return nil
}

// garbleTestHook, when non-nil, runs before each row garbling — the
// fault-injection seam the panic-containment tests use. Set and
// cleared only while no session is in flight.
var garbleTestHook func(row int)

// garbleRoundTestHook, when non-nil, runs on every lane after each
// round but the row's last is handed on (to the pipeline, or to the
// lane's queue), before the next round is garbled — the seam the
// early-frame and round-panic tests use. Set and cleared only while no
// session is in flight.
var garbleRoundTestHook func(row, round int)

// streamRow garbles row i on lane under its trace span (the first
// maxRowSpans rows of a session get one) and hands each round to emit
// as soon as it is garbled. The span therefore also covers the time
// emit blocked on a full pipeline or queue. The chunks are windows of
// one per-row slice, so streaming a round allocates nothing.
func streamRow(ss *session, lane *gc.Lane, i int, row []int64, emit func(rowChunk) error) error {
	if garbleTestHook != nil {
		garbleTestHook(i)
	}
	if i < maxRowSpans {
		defer ss.tr.StartSpan(fmt.Sprintf("round_garble[%d]", i)).End()
	}
	rounds := make(rowChunk, 0, len(row))
	last := len(row) - 1
	return lane.GarbleRow(i, row, func(r int, gb *gc.Garbled) error {
		rounds = append(rounds, gb)
		if err := emit(rounds[r : r+1]); err != nil {
			return err
		}
		if garbleRoundTestHook != nil && r < last {
			garbleRoundTestHook(i, r)
		}
		return nil
	})
}

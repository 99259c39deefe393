package protocol

// Parallel row garbling, which is also the serve pipeline. Matrix rows
// are independent MAC chains of equal cost, so they are garbled on a
// static stripe (garbleRows), the way the paper's FSM assigns each GC
// core its work and the client's rowHelpers evaluate them. A request is
// one gc.Request — one seed, one Δ, row-indexed labels and tweaks — and
// every lane garbles its rows on its own gc.Lane of it, so a row's bytes
// depend on its index alone. Each lane feeds its own bounded queue, and
// the session goroutine drains the queues in row order, the way
// MAXelerator's PCIe link drains each table as the GC cores produce it:
// rounds leave strictly in row order, and the wire bytes do not depend
// on the lane count.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"maxelerator/internal/gc"
)

// pipeDepth is how many rows one lane may hold ahead of the wire: its
// queue holds pipeDepth·Cols rounds, and at most laneRounds. Per-round
// buffering is therefore at most pipeDepth queued rows plus one row in
// progress per lane, not O(rows). A variable only so the transcript
// property test can sweep it (set while no session is in flight, like
// garbleTestHook); the wire bytes must not depend on it.
var pipeDepth = 2

// laneRounds caps a lane's queue for long rows: every queued round is a
// garbled round the server's RoundPool holds, and one lane of a 1×512
// request ran ≈ 300 rounds ahead of the wire for nothing — 32 rounds
// keep the consumer as busy (DESIGN §13).
const laneRounds = 32

// errLaneStopped is a lane's error once the caller has stopped reading
// the queues. garbleRows has returned by then, so it never escapes.
var errLaneStopped = errors.New("protocol: garble lane stopped")

// garbleRows garbles every row of A under req and hands each round to
// consume on the caller's goroutine, in strict row and round order.
// Rows are striped over lanes = max(1, min(workers, rows)) goroutines:
// lane h garbles rows r ≡ h (mod lanes) into its own queue of
// min(pipeDepth·Cols, laneRounds) rounds, and the caller reads row r's
// rounds from queue r mod lanes.
// Lanes garble into rounds from the server's RoundPool, and a dequeued
// round is consume's, to release before it returns; the pool reserves
// what the request can hold at once. A lane charges wm with each
// round's table bytes once the round is queued; framing it credits
// them back. When the next round's queue has nothing ready,
// idle runs before the caller waits on it. A lane's panic becomes its
// error; cancellation stops every lane at its next round and the caller
// at its next row. No lane outlives the call.
func (sess *ServerSession) garbleRows(ctx context.Context, req *gc.Request, A [][]int64, workers int, wm *byteWatermark, consume func(*gc.Garbled) error, idle func() error) error {
	n, cols, ss, sim := len(A), len(A[0]), sess.ss, sess.srv.sim
	lanes := max(1, min(workers, n))
	depth := min(pipeDepth*cols, laneRounds)
	// Each lane holds its queue and the round it garbles, and consume
	// the round it frames.
	sess.srv.rounds.Reserve(min(n*cols, lanes*(depth+1)+1))
	ss.reg.Gauge("garble_workers", "row-garbling lanes of the last request").Set(int64(lanes))
	rowSeconds := ss.reg.Histogram("garble_row_seconds", "wall time to garble one matrix row, back-pressure included", nil)
	rowsTotal := ss.reg.Counter("garble_rows_total", "matrix rows garbled")
	rowStats := sim.Account(cols)

	// Lane h's queue, error and time blocked on its queue; errs[h] is
	// set before queues[h] closes.
	queues := make([]chan *gc.Garbled, lanes)
	errs := make([]error, lanes)
	waits := make([]time.Duration, lanes)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
		var wait time.Duration
		for _, w := range waits {
			wait += w
		}
		ss.tr.SetAttr("garble_wait_ms", fmt.Sprintf("%.3f", wait.Seconds()*1e3))
	}()
	for h := range lanes {
		q := make(chan *gc.Garbled, depth) // pipeDepth rows, at most laneRounds rounds, ahead of the wire
		queues[h] = q
		send := func(gb *gc.Garbled) error {
			size := int64(gb.Material.CiphertextBytes())
			t0 := time.Now()
			select {
			case q <- gb:
			case <-stop:
				return errLaneStopped
			case <-ctx.Done():
				return ctx.Err()
			}
			waits[h] += time.Since(t0)
			wm.add(size)
			return nil
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
			lane := req.PooledLane(sess.srv.rounds)
			for i := h; i < n && errs[h] == nil; i += lanes {
				t0 := time.Now()
				errs[h] = streamRow(ss, lane, i, A[i], send)
				rowSeconds.Observe(time.Since(t0).Seconds())
				if errs[h] == nil {
					rowsTotal.Inc()
					sim.Count(rowStats)
				}
			}
		}()
	}

	for i := range A {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("protocol: garbling interrupted at row %d: %w", i, err)
		}
		// A queue closes before its row ends only on its lane's error.
		h := i % lanes
		for range cols {
			var gb *gc.Garbled
			var ok bool
			select {
			case gb, ok = <-queues[h]:
			default: // nothing ready: what the caller holds leaves before the wait
				if err := idle(); err != nil {
					return err
				}
				gb, ok = <-queues[h]
			}
			if !ok {
				return errs[h]
			}
			if err := consume(gb); err != nil {
				return err
			}
		}
	}
	return nil
}

// garbleTestHook, when non-nil, runs on the lane before each row
// garbling — the fault-injection seam the panic-containment tests use.
// Set and cleared only while no session is in flight.
var garbleTestHook func(row int)

// garbleRoundTestHook, when non-nil, runs on every lane after each
// round but the row's last is queued, before the next round is garbled
// — the seam the early-frame and round-panic tests use. Set and cleared
// only while no session is in flight.
var garbleRoundTestHook func(row, round int)

// streamRow garbles row i on lane under its trace span (the first
// maxRowSpans rows of a request get one) and hands each round to send
// as soon as it is garbled. The span therefore also covers the time
// send blocked on a full queue.
func streamRow(ss *session, lane *gc.Lane, i int, row []int64, send func(*gc.Garbled) error) error {
	if garbleTestHook != nil {
		garbleTestHook(i)
	}
	if i < maxRowSpans {
		defer ss.tr.StartSpan(fmt.Sprintf("round_garble[%d]", i)).End()
	}
	last := len(row) - 1
	return lane.GarbleRow(i, row, func(r int, gb *gc.Garbled) error {
		if err := send(gb); err != nil {
			return err
		}
		if garbleRoundTestHook != nil && r < last {
			garbleRoundTestHook(i, r)
		}
		return nil
	})
}

// Package pipeline provides the bounded producer/consumer stage used
// by the streaming serve path: a producer goroutine yields items (in
// this repository, chunks of consecutive garbled rounds of one row: a
// single round or a whole row) through a depth-bounded channel
// to a consumer running on the caller's goroutine (wire framing), so
// downstream transfer overlaps upstream production while buffering
// stays O(depth) instead of O(request).
//
// The package is deliberately generic and protocol-free so its
// concurrency contract — no goroutine leaks, panic containment,
// prompt cancellation — is testable in isolation and reusable by any
// stage pair.
package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError carries a panic recovered from a producer so the caller's
// containment layer can classify and log it like one of its own.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the producer goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: producer panic: %v", e.Value)
}

// Stream runs produce in its own goroutine and feeds each yielded item
// through a channel of the given depth to consume, which runs on the
// caller's goroutine in yield order. It returns once both sides are
// done — Stream never leaves the producer goroutine behind, even when
// the consumer fails, the context is cancelled, or either side panics.
//
// The producer calls yield for each item; yield returns false when the
// consumer has failed or ctx is done, and the producer should stop
// promptly (returning any error it likes — a false yield that leads to
// a nil produce error reports ctx.Err instead).
//
// Error precedence: a consumer error wins (the producer is cancelled
// and the channel drained), then a producer error or recovered
// producer panic (as *PanicError), then ctx.Err. Items still in
// flight when the pipeline aborts are dropped, so yielded values must
// not own resources that need explicit release.
//
// A consumer panic propagates to the caller, but only after the
// producer has been cancelled and reaped.
func Stream[T any](ctx context.Context, depth int, produce func(yield func(T) bool) error, consume func(T) error) (err error) {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan T, depth)
	stop := make(chan struct{})
	prodErr := make(chan error, 1)

	go func() {
		var perr error
		defer func() {
			if r := recover(); r != nil {
				perr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			close(ch)
			prodErr <- perr
		}()
		yield := func(v T) bool {
			select {
			case ch <- v:
				return true
			case <-stop:
				return false
			case <-ctx.Done():
				return false
			}
		}
		perr = produce(yield)
	}()

	var stopOnce sync.Once
	bail := func() { stopOnce.Do(func() { close(stop) }) }
	defer func() {
		// Runs on every exit, including a consumer panic: cancel the
		// producer, drain whatever it already yielded, and wait for
		// its goroutine to finish before Stream returns.
		bail()
		for range ch {
		}
		perr := <-prodErr
		if err == nil {
			err = perr
		}
		if err == nil {
			err = ctx.Err()
		}
	}()

	for v := range ch {
		if cerr := consume(v); cerr != nil {
			return cerr
		}
	}
	return nil
}

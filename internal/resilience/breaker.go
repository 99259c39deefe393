// Package resilience holds the gateway's two fleet defenses, kept free
// of gateway types so tests can drive them alone:
//
//   - Breaker — membership: a backend leaves routing after Threshold
//     consecutive failures and comes back on the next success.
//   - Ejector — a *slow-but-alive* backend answers every probe yet
//     drags the fleet's tail latency. The ejector tracks per-backend
//     handshake latency EWMAs and demotes any backend beyond k times
//     the fleet median to last resort.
//
// DESIGN §14 gives the measurement each one rests on.
package resilience

import "sync"

// Breaker is one backend's membership. Probe verdicts and
// routing-time handshake results both call Observe, so a dead backend
// leaves routing at dial speed, not probe speed, and one good probe or
// handshake brings it back.
type Breaker struct {
	threshold int

	mu    sync.Mutex
	open  bool
	fails int // consecutive failures
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures (at least 1).
func NewBreaker(threshold int) *Breaker {
	return &Breaker{threshold: max(threshold, 1)}
}

// Observe feeds one success or failure in and reports whether it
// opened or closed the breaker. Changes are decided under the lock, so
// two observers racing on one backend cannot both report the same
// change: opens and closes alternate.
func (b *Breaker) Observe(ok bool) (changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.fails = 0
		changed, b.open = b.open, false
		return changed
	}
	b.fails++
	if !b.open && b.fails >= b.threshold {
		b.open = true
		return true
	}
	return false
}

// Routable reports whether the breaker is closed: the backend is in
// the fleet.
func (b *Breaker) Routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

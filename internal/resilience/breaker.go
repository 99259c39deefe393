// Package resilience holds the fleet's failure-shape defenses: a
// per-backend circuit breaker with readmission hysteresis, an EWMA
// latency outlier ejector, and a token-bucket retry budget. The
// gateway composes all three; they are kept free of gateway types (and
// of each other) so maxchaos and tests can drive them in isolation.
//
// The three mechanisms answer three distinct failure shapes the
// binary "healthy until 3 probes fail" model cannot:
//
//   - Breaker — a *flapping* backend (crash loops, overload cycling)
//     must not oscillate back into routing each probe tick.
//     The breaker trips open after consecutive failures, cools down
//     for a period that doubles on every re-trip, and readmits only
//     through a half-open single-probe trial.
//   - Ejector — a *slow-but-alive* backend answers every probe yet
//     amplifies fleet tail latency. The ejector tracks per-backend
//     handshake latency EWMAs and temporarily weights out any backend
//     beyond k times the fleet median.
//   - Budget — a *fleet-wide* outage turns every session into a
//     failover storm. The budget caps the fraction of sessions that
//     may fail over, so total collapse degrades to fast BUSY
//     rejections instead of retry amplification.
package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// StateClosed: the backend is routable; failures are being counted.
	StateClosed State = iota
	// StateOpen: the backend is out of routing, cooling down.
	StateOpen
	// StateHalfOpen: the cooldown expired; exactly one trial decides
	// between readmission and a longer cooldown.
	StateHalfOpen
)

// String renders the state for logs, /fleetz and maxtop.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Transition is one recorded state change. Seq increases by exactly
// one per transition of a breaker, so tests can assert the machine
// moved monotonically and only along legal edges.
type Transition struct {
	Seq  uint64
	From State
	To   State
	At   time.Time
}

// BreakerConfig shapes one Breaker. The zero value resolves to the
// defaults noted per field.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker
	// open. Default 3.
	Threshold int
	// Cooldown is the base open→half-open wait. Default 5s.
	Cooldown time.Duration
	// MaxCooldown caps the hysteresis backoff (the cooldown doubles on
	// every re-trip that happens before a full recovery). Default
	// 8×Cooldown.
	MaxCooldown time.Duration
	// RecoveryStreak is how many consecutive successes in the closed
	// state clear the re-trip history, restoring the base cooldown.
	// Default Threshold.
	RecoveryStreak int
	// Now is the clock; tests inject a fake. Default time.Now.
	Now func() time.Time
	// OnTransition, when set, observes every state change while the
	// breaker's lock is held — transitions are therefore delivered in
	// Seq order with no interleaving, which is what lets the gateway
	// count ejections and readmissions exactly and lets tests assert
	// monotonicity. The hook must not call back into the breaker.
	OnTransition func(Transition)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 8 * c.Cooldown
	}
	if c.RecoveryStreak <= 0 {
		c.RecoveryStreak = c.Threshold
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-backend circuit breaker. Failures come from two
// sources with one policy: health-probe verdicts and routing-time
// handshake results both call Observe, so a dead backend stops being
// routable at dial speed, not probe speed.
//
// Hysteresis is the breaker's reason to exist over a plain
// consecutive-failure counter: while open, observations do not move
// the state — a flapping backend that happens to answer one probe
// mid-cooldown stays unroutable — and every re-trip before a full
// recovery (RecoveryStreak closed successes) doubles the next
// cooldown, so a backend oscillating at any period settles into
// long exclusions instead of oscillating the fleet.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int // consecutive failures while closed
	streak   int // consecutive successes while closed
	trips    int // re-trips since the last full recovery (hysteresis exponent)
	openedAt time.Time
	seq      uint64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// transition moves the machine and notifies the hook; callers hold mu.
func (b *Breaker) transition(to State, at time.Time) {
	from := b.state
	b.state = to
	b.seq++
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(Transition{Seq: b.seq, From: from, To: to, At: at})
	}
}

// cooldown is the current open-state dwell: base doubled per re-trip,
// capped.
func (b *Breaker) cooldown() time.Duration {
	d := b.cfg.Cooldown
	for i := 1; i < b.trips; i++ {
		d *= 2
		if d >= b.cfg.MaxCooldown {
			return b.cfg.MaxCooldown
		}
	}
	if d > b.cfg.MaxCooldown {
		d = b.cfg.MaxCooldown
	}
	return d
}

// Observe feeds one success or failure into the machine and returns
// the resulting state. The half-open trial rides the same call: when
// an expired cooldown is noticed, the breaker moves to half-open and
// *this* observation is the single trial — success readmits, failure
// re-opens with a doubled cooldown. While the cooldown is still
// running, observations are deliberately ignored (see the type
// comment).
func (b *Breaker) Observe(ok bool) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if b.state == StateOpen && now.Sub(b.openedAt) >= b.cooldown() {
		b.transition(StateHalfOpen, now)
	}
	switch b.state {
	case StateClosed:
		if ok {
			b.fails = 0
			b.streak++
			if b.streak >= b.cfg.RecoveryStreak {
				b.trips = 0
			}
		} else {
			b.streak = 0
			b.fails++
			if b.fails >= b.cfg.Threshold {
				b.trips++
				b.openedAt = now
				b.transition(StateOpen, now)
			}
		}
	case StateOpen:
		// Cooling down: hysteresis means neither a lucky success nor
		// further failures move the machine.
	case StateHalfOpen:
		if ok {
			b.fails, b.streak = 0, 0
			b.transition(StateClosed, now)
		} else {
			b.trips++
			b.openedAt = now
			b.transition(StateOpen, now)
		}
	}
	return b.state
}

// State reads the current position without advancing the clock: an
// expired cooldown shows as open until the next Observe runs the
// half-open trial, which keeps readmission single-probe.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Routable reports whether traffic may be sent: only a closed breaker
// routes (half-open admits exactly the probe trial, not sessions).
func (b *Breaker) Routable() bool { return b.State() == StateClosed }

// TrialReady reports whether the breaker is open with its cooldown
// expired — the next Observe will run the half-open trial. Callers
// that drive readmission through traffic rather than probes (a
// backend with no health URL) offer exactly such backends as
// last-resort candidates; the handshake result is the trial.
func (b *Breaker) TrialReady() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= b.cooldown()
}

// Fails reports the consecutive-failure count while closed.
func (b *Breaker) Fails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

// Trips reports the re-trip count since the last full recovery — the
// hysteresis exponent, surfaced for operators and tests.
func (b *Breaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Seq reports how many transitions have occurred.
func (b *Breaker) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

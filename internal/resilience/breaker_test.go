package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock shared by the resilience
// tests (and the gateway's, via Config.Now).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// recorder collects transitions for monotonicity assertions.
type recorder struct {
	mu sync.Mutex
	ts []Transition
}

func (r *recorder) hook(t Transition) {
	r.mu.Lock()
	r.ts = append(r.ts, t)
	r.mu.Unlock()
}

func (r *recorder) all() []Transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Transition(nil), r.ts...)
}

// assertLegal checks the transition log is monotone (Seq strictly
// +1-increasing) and every edge is one the state machine defines.
func assertLegal(t *testing.T, ts []Transition) {
	t.Helper()
	legal := map[[2]State]bool{
		{StateClosed, StateOpen}:     true,
		{StateOpen, StateHalfOpen}:   true,
		{StateHalfOpen, StateClosed}: true,
		{StateHalfOpen, StateOpen}:   true,
	}
	for i, tr := range ts {
		if tr.Seq != uint64(i+1) {
			t.Fatalf("transition %d has seq %d, want %d (non-monotone)", i, tr.Seq, i+1)
		}
		if !legal[[2]State{tr.From, tr.To}] {
			t.Fatalf("illegal transition %v → %v at seq %d", tr.From, tr.To, tr.Seq)
		}
	}
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := newFakeClock()
	rec := &recorder{}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Now: clk.Now, OnTransition: rec.hook})

	b.Observe(false)
	b.Observe(false)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
	if b.Observe(false) != StateOpen {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if b.Routable() {
		t.Fatal("open breaker reports routable")
	}
	assertLegal(t, rec.all())
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second, Now: clk.Now})
	// Alternating failure/success never accumulates to the threshold.
	for i := 0; i < 10; i++ {
		b.Observe(false)
		b.Observe(true)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("alternating results tripped the breaker: %v", got)
	}
}

// TestBreakerIgnoresResultsWhileCooling is the hysteresis core: a
// flapping backend that answers one probe mid-cooldown must stay
// unroutable until the half-open trial.
func TestBreakerIgnoresResultsWhileCooling(t *testing.T) {
	clk := newFakeClock()
	rec := &recorder{}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Second, Now: clk.Now, OnTransition: rec.hook})
	b.Observe(false) // trip

	clk.Advance(5 * time.Second) // mid-cooldown
	if got := b.Observe(true); got != StateOpen {
		t.Fatalf("mid-cooldown success moved the breaker to %v", got)
	}
	if got := b.Observe(false); got != StateOpen {
		t.Fatalf("mid-cooldown failure moved the breaker to %v", got)
	}

	clk.Advance(5 * time.Second) // cooldown expired: this is the trial
	if got := b.Observe(true); got != StateClosed {
		t.Fatalf("half-open trial success left the breaker %v", got)
	}
	assertLegal(t, rec.all())
}

// TestBreakerHalfOpenFailureDoublesCooldown: every re-trip before a
// full recovery doubles the dwell, capped at MaxCooldown.
func TestBreakerHalfOpenFailureDoublesCooldown(t *testing.T) {
	clk := newFakeClock()
	rec := &recorder{}
	b := NewBreaker(BreakerConfig{
		Threshold: 1, Cooldown: time.Second, MaxCooldown: 4 * time.Second,
		Now: clk.Now, OnTransition: rec.hook,
	})
	b.Observe(false) // trip 1: cooldown 1s

	clk.Advance(time.Second)
	if got := b.Observe(false); got != StateOpen {
		t.Fatalf("failed trial left the breaker %v", got)
	}
	// Trip 2: cooldown now 2s. 1s is not enough...
	clk.Advance(time.Second)
	if got := b.Observe(true); got != StateOpen {
		t.Fatalf("success 1s into a 2s cooldown left the breaker %v", got)
	}
	// ...2s is.
	clk.Advance(time.Second)
	if got := b.Observe(false); got != StateOpen {
		t.Fatalf("second failed trial left the breaker %v", got)
	}
	// Trip 3: 4s (the cap; would be 4s anyway). Trip 4 would also be 4s.
	clk.Advance(4 * time.Second)
	if got := b.Observe(false); got != StateOpen {
		t.Fatalf("third failed trial left the breaker %v", got)
	}
	if got := b.Trips(); got != 4 {
		t.Fatalf("trips = %d, want 4", got)
	}
	clk.Advance(4 * time.Second)
	if got := b.Observe(true); got != StateClosed {
		t.Fatalf("trial after capped cooldown left the breaker %v", got)
	}
	assertLegal(t, rec.all())
}

// TestBreakerRecoveryStreakRestoresBaseCooldown: hysteresis survives a
// readmission — only a streak of closed successes clears the re-trip
// history.
func TestBreakerRecoveryStreakRestoresBaseCooldown(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{
		Threshold: 1, Cooldown: time.Second, MaxCooldown: 8 * time.Second,
		RecoveryStreak: 3, Now: clk.Now,
	})
	b.Observe(false) // trip 1
	clk.Advance(time.Second)
	b.Observe(true) // readmitted; trips history retained (streak 0)
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips after readmission = %d, want 1 (history must survive)", got)
	}
	b.Observe(false) // immediate re-trip: cooldown doubles to 2s
	clk.Advance(time.Second)
	if got := b.Observe(true); got != StateOpen {
		t.Fatal("re-trip after shallow recovery did not double the cooldown")
	}
	clk.Advance(time.Second)
	b.Observe(true) // readmitted again

	// A full recovery streak clears the history...
	b.Observe(true)
	b.Observe(true)
	b.Observe(true)
	if got := b.Trips(); got != 0 {
		t.Fatalf("trips after recovery streak = %d, want 0", got)
	}
	// ...so the next trip cools for the base period again.
	b.Observe(false)
	clk.Advance(time.Second)
	if got := b.Observe(true); got != StateClosed {
		t.Fatalf("post-recovery trip did not use the base cooldown: %v", got)
	}
}

// TestBreakerConcurrentObserves runs mixed observations from many
// goroutines purely for the race detector; the end state must still be
// a legal one and the transition log monotone.
func TestBreakerConcurrentObserves(t *testing.T) {
	rec := &recorder{}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Millisecond, OnTransition: rec.hook})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Observe(j%3 == i%3)
			}
		}()
	}
	wg.Wait()
	switch b.State() {
	case StateClosed, StateOpen, StateHalfOpen:
	default:
		t.Fatalf("invalid terminal state %v", b.State())
	}
	assertLegal(t, rec.all())
}

package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for the ejector tests.
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

func feed(e *Ejector, id string, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		e.Observe(id, d)
	}
}

func TestEjectorEjectsSlowOutlier(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{K: 3, MinSamples: 3, MinFleet: 3, Cooldown: 10 * time.Second, Now: clk.Now})
	feed(e, "a", 10*time.Millisecond, 5)
	feed(e, "b", 12*time.Millisecond, 5)
	feed(e, "c", 200*time.Millisecond, 5) // ~17× the median

	ejected := e.Sweep()
	if len(ejected) != 1 || ejected[0] != "c" {
		t.Fatalf("Sweep ejected %v, want [c]", ejected)
	}
	if !e.Ejected("c") || e.Ejected("a") || e.Ejected("b") {
		t.Fatal("ejection flags wrong after sweep")
	}
	if again := e.Sweep(); len(again) != 0 {
		t.Fatalf("second sweep re-reported the ejection: %v", again)
	}
	if d, ok := e.EWMA("c"); !ok || d < 100*time.Millisecond {
		t.Fatalf("EWMA(c) = %v, %v", d, ok)
	}
}

func TestEjectorNeedsFleetQuorum(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{K: 3, MinSamples: 3, MinFleet: 3, Now: clk.Now})
	feed(e, "a", 10*time.Millisecond, 5)
	feed(e, "b", 500*time.Millisecond, 5)
	if ejected := e.Sweep(); len(ejected) != 0 {
		t.Fatalf("two-backend fleet ejected %v; median of two is meaningless", ejected)
	}
}

func TestEjectorNeedsMinSamples(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{K: 3, MinSamples: 5, MinFleet: 3, Now: clk.Now})
	feed(e, "a", 10*time.Millisecond, 5)
	feed(e, "b", 10*time.Millisecond, 5)
	feed(e, "c", 10*time.Millisecond, 5)
	feed(e, "d", 900*time.Millisecond, 2) // slow but under-sampled
	if ejected := e.Sweep(); len(ejected) != 0 {
		t.Fatalf("under-sampled backend ejected: %v", ejected)
	}
}

func TestEjectorFloorSuppressesNoise(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{K: 3, MinSamples: 3, MinFleet: 3, Floor: time.Millisecond, Now: clk.Now})
	// 10× skew, but everything is microseconds — below the noise floor.
	feed(e, "a", 50*time.Microsecond, 5)
	feed(e, "b", 60*time.Microsecond, 5)
	feed(e, "c", 600*time.Microsecond, 5)
	if ejected := e.Sweep(); len(ejected) != 0 {
		t.Fatalf("sub-floor latencies ejected %v", ejected)
	}
}

// TestEjectorCooldownAndProbation: the ejection expires on its own,
// and the returning backend must earn MinSamples fresh observations
// before its (stale-high) EWMA can eject it again.
func TestEjectorCooldownAndProbation(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{K: 3, MinSamples: 3, MinFleet: 3, Cooldown: 10 * time.Second, Now: clk.Now})
	feed(e, "a", 10*time.Millisecond, 5)
	feed(e, "b", 12*time.Millisecond, 5)
	feed(e, "c", 200*time.Millisecond, 5)
	if ejected := e.Sweep(); len(ejected) != 1 {
		t.Fatalf("Sweep ejected %v", ejected)
	}

	clk.Advance(11 * time.Second)
	if e.Ejected("c") {
		t.Fatal("ejection did not expire after the cooldown")
	}
	// No fresh samples: the stale EWMA alone must not re-eject.
	if ejected := e.Sweep(); len(ejected) != 0 {
		t.Fatalf("probation violated: %v re-ejected on stale EWMA", ejected)
	}
	// Still slow after probation: fresh samples re-eject it.
	feed(e, "c", 200*time.Millisecond, 3)
	if ejected := e.Sweep(); len(ejected) != 1 || ejected[0] != "c" {
		t.Fatalf("fresh slow samples did not re-eject: %v", ejected)
	}
}

// TestEjectorRecoveredBackendStaysIn: a backend that was slow but
// recovers during its ejection returns and survives the next sweeps.
func TestEjectorRecoveredBackendStaysIn(t *testing.T) {
	clk := newFakeClock()
	e := NewEjector(EjectorConfig{Alpha: 0.5, K: 3, MinSamples: 3, MinFleet: 3, Cooldown: 5 * time.Second, Now: clk.Now})
	feed(e, "a", 10*time.Millisecond, 5)
	feed(e, "b", 12*time.Millisecond, 5)
	feed(e, "c", 300*time.Millisecond, 5)
	e.Sweep()
	clk.Advance(6 * time.Second)
	feed(e, "c", 11*time.Millisecond, 8) // recovered: EWMA converges down
	if ejected := e.Sweep(); len(ejected) != 0 {
		t.Fatalf("recovered backend re-ejected: %v", ejected)
	}
	if e.Ejected("c") {
		t.Fatal("recovered backend still flagged")
	}
}

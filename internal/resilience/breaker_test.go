package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b := NewBreaker(3)
	if b.Observe(false) || b.Observe(false) {
		t.Fatal("breaker opened before the third consecutive failure")
	}
	if !b.Routable() {
		t.Fatal("breaker left routing after 2 of 3 failures")
	}
	if !b.Observe(false) {
		t.Fatal("third consecutive failure did not open the breaker")
	}
	if b.Routable() {
		t.Fatal("open breaker reports routable")
	}
	if b.Observe(false) {
		t.Fatal("a failure on an open breaker reported a change")
	}
	if !b.Observe(true) || !b.Routable() {
		t.Fatal("one success did not close the open breaker")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreaker(2)
	// Alternating failure/success never accumulates to the threshold.
	for i := 0; i < 10; i++ {
		b.Observe(false)
		b.Observe(true)
	}
	if !b.Routable() {
		t.Fatal("alternating results opened the breaker")
	}
}

// TestBreakerConcurrentObserves runs mixed observations from many
// goroutines under the race detector: the changes they report must
// alternate, so opens equal closes, plus one if the breaker ends open.
func TestBreakerConcurrentObserves(t *testing.T) {
	b := NewBreaker(3)
	var opens, closes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ok := j%3 == i%3
				if b.Observe(ok) {
					if ok {
						closes.Add(1)
					} else {
						opens.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	want := closes.Load()
	if !b.Routable() {
		want++
	}
	if opens.Load() != want {
		t.Fatalf("%d opens and %d closes, ending routable=%v: changes did not alternate",
			opens.Load(), closes.Load(), b.Routable())
	}
}

package maxsim

import (
	"bytes"
	"sync"
	"testing"

	"maxelerator/internal/gc"
	"maxelerator/internal/obs"
)

// TestConcurrentGarblingSharesCompiledState: one Simulator serves four
// goroutines garbling at once — each call is a request of its own, keyed
// from a fresh seed, over the simulator's one netlist and schedule — and
// every run decodes to the plaintext dot product under its own Δ. Run
// under -race in CI: the calls share the circuit's lowered program, the
// params' hash, the metric handles and Config.Rand (crypto/rand), and
// nothing else.
func TestConcurrentGarblingSharesCompiledState(t *testing.T) {
	s := sim(t, Config{Width: 8, AccWidth: 24, Signed: true, Metrics: obs.NewRegistry()})
	x := []int64{3, -7, 120, -128}
	a := []int64{-5, 11, 127, -128}
	var want int64
	for i := range x {
		want += x[i] * a[i]
	}
	frames := make([][]byte, 4)
	var wg sync.WaitGroup
	for w := range frames {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				run, err := s.GarbleDotProduct(x)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := EvaluateDotProduct(s.Config().Params, s.Circuit(), run, a, 8, true)
				if err != nil || got != want {
					t.Errorf("goroutine %d rep %d: got %d, %v; want %d", w, rep, got, err, want)
					return
				}
				if rep == 0 {
					if frames[w], err = gc.MarshalMaterial(&run.Rounds[0].Material); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(frames); w++ {
		if bytes.Equal(frames[0], frames[w]) {
			t.Fatalf("calls 0 and %d produced identical material: they share labels", w)
		}
	}
	if got := s.Config().Metrics.Counter("macs_total", "").Value(); got != uint64(len(frames)*8*len(x)) {
		t.Fatalf("macs_total = %d, want %d", got, len(frames)*8*len(x))
	}
}

// TestWithMetricsRebindsRecording: the copy records into the new
// registry, and the original records nowhere.
func TestWithMetricsRebindsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	orig := sim(t, Config{Width: 8})
	s := orig.WithMetrics(reg)
	if _, err := s.GarbleDotProduct([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := orig.GarbleDotProduct([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("macs_total", "").Value(); got != 3 {
		t.Fatalf("macs_total = %d after one 3-round garbling, want 3", got)
	}
}

package maxsim

import (
	"bytes"
	"sync"
	"testing"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/obs"
)

// TestForkSharesCompiledStateNotGarbler: forks reuse the template's
// netlist and schedule (no rebuild) and each garble under their own
// free-XOR offset and working memory — four of them at once, off one
// template, all decoding to the plaintext dot product. Run under -race
// in CI: the forks share the circuit's lowered program and the params'
// hash, and nothing else.
func TestForkSharesCompiledStateNotGarbler(t *testing.T) {
	tmpl := sim(t, Config{Width: 8, AccWidth: 24, Signed: true})
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
			f, err := tmpl.Fork(label.MustSystemDRBG())
			if err != nil {
				t.Error(err)
				return
			}
			if f.Circuit() != tmpl.Circuit() || f.Schedule() != tmpl.Schedule() {
				t.Error("fork rebuilt the netlist or the schedule")
				return
			}
			for rep := 0; rep < 8; rep++ {
				run, err := f.GarbleDotProduct(x)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := EvaluateDotProduct(f.Config().Params, f.Circuit(), run, a, 8, true)
				if err != nil || got != want {
					t.Errorf("fork %d rep %d: got %d, %v; want %d", w, rep, got, err, want)
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
			t.Fatalf("forks 0 and %d produced identical material: they share a garbler", w)
		}
	}
}

// TestWithMetricsRebindsRecording: the copy records into the new
// registry, forks of it included, and the original's stays untouched.
func TestWithMetricsRebindsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	tmpl := sim(t, Config{Width: 8}).WithMetrics(reg)
	f, err := tmpl.Fork(label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GarbleDotProduct([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("macs_total", "").Value(); got != 3 {
		t.Fatalf("macs_total = %d after a 3-round garbling, want 3", got)
	}
}

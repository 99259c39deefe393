package gc

import (
	"sync"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// roundAllocs measures the heap objects of one Garble round and one
// Evaluate round of the width-b signed MAC (steady state: the garbler's
// working memory is already grown).
func roundAllocs(t *testing.T, width int) (garble, evaluate float64) {
	t.Helper()
	c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: true})
	p := DefaultParams()
	g, err := NewGarbler(p, label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]bool, width)
	first, err := g.Garble(c, GarbleOptions{GarblerInputs: x})
	if err != nil {
		t.Fatal(err)
	}
	opts := GarbleOptions{GarblerInputs: x, State0: first.StateOut0}
	garble = testing.AllocsPerRun(20, func() {
		if _, err := g.Garble(c, opts); err != nil {
			t.Fatal(err)
		}
	})
	active := pickActive(first.EvalPairs, x)
	evaluate = testing.AllocsPerRun(20, func() {
		if _, err := Evaluate(p, c, &first.Material, active, nil); err != nil {
			t.Fatal(err)
		}
	})
	return garble, evaluate
}

// TestKernelAllocationsDoNotGrowWithGates is the allocation contract of
// the walkers: a round costs a small constant number of heap objects —
// the result's slices, one table block, the evaluator's working memory —
// whatever the gate count. Before the flat-program kernel a b=16 round
// cost ≈ 6 500 objects garbling and ≈ 2 900 evaluating, nine and four
// per AND gate.
func TestKernelAllocationsDoNotGrowWithGates(t *testing.T) {
	g8, e8 := roundAllocs(t, 8)
	g16, e16 := roundAllocs(t, 16)
	g32, e32 := roundAllocs(t, 32)
	if g16 > 12 || e16 > 12 {
		t.Fatalf("b=16 round allocates %.0f objects garbling, %.0f evaluating; want at most 12 each", g16, e16)
	}
	if g8 != g32 || e8 != e32 {
		t.Fatalf("allocations grow with the circuit: garble %.0f (b=8) vs %.0f (b=32), evaluate %.0f vs %.0f", g8, g32, e8, e32)
	}
}

// TestEvaluatorEvalAllocatesNothing is the evaluator's half of the
// contract above: with the working memory and the result owned by the
// Evaluator, a round — state chained from the previous one, as the
// client's row loop does — allocates nothing at all.
func TestEvaluatorEvalAllocatesNothing(t *testing.T) {
	for _, width := range []int{8, 16} {
		c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: true})
		p := DefaultParams()
		g, err := NewGarbler(p, label.MustSystemDRBG())
		if err != nil {
			t.Fatal(err)
		}
		x := make([]bool, width)
		first, err := g.Garble(c, GarbleOptions{GarblerInputs: x})
		if err != nil {
			t.Fatal(err)
		}
		second, err := g.Garble(c, GarbleOptions{GarblerInputs: x, State0: first.StateOut0})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(p, c)
		if err != nil {
			t.Fatal(err)
		}
		active0, active1 := pickActive(first.EvalPairs, x), pickActive(second.EvalPairs, x)
		allocs := testing.AllocsPerRun(20, func() {
			res, err := e.Eval(&first.Material, active0, nil)
			if err == nil {
				_, err = e.Eval(&second.Material, active1, res.StateActive)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("b=%d: two chained Eval rounds allocate %.0f objects, want 0", width, allocs)
		}
	}
}

// TestSharedParamsAndCircuitAcrossGoroutines garbles and evaluates on
// four goroutines that share one Params (one *gchash.AES) and one
// *circuit.Circuit (one lowered program), as the protocol's garble
// workers and a process's concurrent client sessions do. Working memory
// must belong to the Garbler and the Evaluator: hash or slot scratch
// parked in the shared hash or circuit would corrupt results here and
// trip the race detector (CI runs this package under -race).
func TestSharedParamsAndCircuitAcrossGoroutines(t *testing.T) {
	const width = 8
	c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: true})
	p := DefaultParams()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := NewGarbler(p, label.MustSystemDRBG())
			if err != nil {
				t.Error(err)
				return
			}
			e, err := NewEvaluator(p, c)
			if err != nil {
				t.Error(err)
				return
			}
			var state0, act []label.Label
			var plain []bool
			for round := 0; round < 24; round++ {
				x := circuit.Int64ToBits(int64(round*7+w-60), width)
				a := circuit.Int64ToBits(int64(50-round*3-w), width)
				gb, err := g.Garble(c, GarbleOptions{GarblerInputs: x, State0: state0})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := e.Eval(&gb.Material, pickActive(gb.EvalPairs, a), act)
				if err != nil {
					t.Error(err)
					return
				}
				want, next, err := c.EvalRound(x, a, plain)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if res.Outputs[i] != want[i] {
						t.Errorf("worker %d round %d: output bit %d wrong", w, round, i)
						return
					}
				}
				state0, act, plain = gb.StateOut0, res.StateActive, next
			}
		}(w)
	}
	wg.Wait()
}

package gc

import (
	"fmt"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// benchRounds is the row length the round benchmarks garble and
// evaluate: a 16-column request's row, as warm_inline serves it.
const benchRounds = 16

// BenchmarkGarbleRound prices the garbler's walk per AND gate: a pooled
// lane garbling 16-round rows of the signed MAC, each round released
// once garbled, as the server's lanes do. ns/AND is the whole round
// (labels, XORs, ANDs, pairs) over its AND count.
func BenchmarkGarbleRound(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: true})
			x := make([]int64, benchRounds)
			for i := range x {
				x[i] = int64(i*37+5) % (1 << (width - 1))
			}
			req, err := NewRequest(DefaultParams(), c, len(x), [16]byte{7})
			if err != nil {
				b.Fatal(err)
			}
			pool, err := NewRoundPool(DefaultParams(), c)
			if err != nil {
				b.Fatal(err)
			}
			lane := req.PooledLane(pool)
			release := func(_ int, gb *Garbled) error {
				pool.Put(gb)
				return nil
			}
			// Row 0 fills the pool and the lane's state buffer, so even a
			// one-iteration run reports the steady state's allocations.
			if err := lane.GarbleRow(0, x, release); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if err := lane.GarbleRow(i, x, release); err != nil {
					b.Fatal(err)
				}
			}
			reportPerAND(b, c)
		})
	}
}

// BenchmarkEvalRound prices the evaluator's walk per AND gate: one
// Evaluator running a garbled 16-round row of the signed MAC, the state
// labels chained from round to round, as the client's row loop does.
func BenchmarkEvalRound(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: true})
			g, err := NewGarbler(DefaultParams(), label.MustSystemDRBG())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]bool, width)
			rounds := make([]*Garbled, benchRounds)
			active := make([][]label.Label, benchRounds)
			var state0 []label.Label
			for j := range rounds {
				if rounds[j], err = g.Garble(c, GarbleOptions{GarblerInputs: x, State0: state0}); err != nil {
					b.Fatal(err)
				}
				state0 = rounds[j].StateOut0
				active[j] = pickActive(rounds[j].EvalPairs, x)
			}
			e, err := NewEvaluator(DefaultParams(), c)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var state []label.Label
				for j, gb := range rounds {
					res, err := e.Eval(&gb.Material, active[j], state)
					if err != nil {
						b.Fatal(err)
					}
					state = res.StateActive
				}
			}
			reportPerAND(b, c)
		})
	}
}

// reportPerAND stops the timer and reports the benchmark's time per
// garbled AND gate, over benchRounds rounds of c per iteration. The
// metric's own allocation falls outside the timed region.
func reportPerAND(b *testing.B, c *circuit.Circuit) {
	b.StopTimer()
	ands := float64(b.N) * benchRounds * float64(c.Stats().ANDs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ands, "ns/AND")
}

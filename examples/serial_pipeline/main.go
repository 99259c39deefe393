// Bit-serial pipeline: watch the Fig. 2 datapath execute stage by
// stage. This example garbles the bit-serial MAC unit — the actual
// sequential netlist the MAXelerator FSM embeds — one 3-cycle stage at
// a time, streaming the client's multiplier bit serially exactly as
// the hardware does, and prints the accumulator bit emerging each
// stage.
//
//	go run ./examples/serial_pipeline
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/serial"
)

func main() {
	const b = 8
	ckt, layout := serial.MustMAC(b)

	fmt.Printf("bit-serial MAC unit, b=%d\n", b)
	fmt.Printf("  ANDs per stage : %d (2b partial products, serial adders, tree, accumulator)\n", layout.ANDsPerStage)
	fmt.Printf("  stages per MAC : %d (b bits of a + pipeline flush)\n", layout.StagesPerMAC)
	fmt.Printf("  state bits     : %d (carries, delay lines, accumulator)\n\n", layout.StateBits)

	// One garbler and one evaluator for the whole run: each stage is a
	// sequential-GC round, the carries and the accumulator travel as
	// state labels (FALSE labels on the garbler's side, active ones on
	// the evaluator's), and the garbler moves every stage onto fresh
	// tweaks under its one Δ.
	params := gc.DefaultParams()
	g, err := gc.NewGarbler(params, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := gc.NewEvaluator(params, ckt)
	if err != nil {
		log.Fatal(err)
	}
	var state0, stateAct []label.Label

	// Two MAC rounds: acc = 13·11 + 7·15.
	xs := []uint64{13, 7}
	as := []uint64{11, 15}
	want := uint64(13*11 + 7*15)

	var accBits []bool
	for r := range xs {
		fmt.Printf("round %d: x=%d (held in cores), a=%d (streamed LSB first)\n", r, xs[r], as[r])
		xBits := circuit.Uint64ToBits(xs[r], b)
		accBits = accBits[:0]
		for stage := 0; stage < layout.StagesPerMAC; stage++ {
			gb, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: xBits, State0: state0})
			if err != nil {
				log.Fatal(err)
			}
			aBits := layout.StageInputs(as[r], stage)
			active := make([]label.Label, len(aBits))
			for i, v := range aBits {
				active[i] = gb.EvalPairs[i].Get(v)
			}
			res, err := ev.Eval(&gb.Material, active, stateAct)
			if err != nil {
				log.Fatal(err)
			}
			state0, stateAct = gb.StateOut0, res.StateActive
			accBits = append(accBits, res.Outputs[0])

			marker := " "
			if stage < b {
				marker = fmt.Sprintf("a[%d]=%d", stage, boolBit(aBits[0]))
			} else {
				marker = "flush"
			}
			fmt.Printf("  stage %2d: %-7s  %d AND tables garbled, acc bit %2d = %d\n",
				stage, marker, gb.Material.NumTables, stage, boolBit(res.Outputs[0]))
		}
		fmt.Printf("  accumulator after round %d: %d\n\n", r, circuit.BitsToUint64(accBits))
	}

	got := circuit.BitsToUint64(accBits)
	fmt.Printf("final accumulator: %d (plaintext %d)\n", got, want)
	if got != want {
		log.Fatal("MISMATCH")
	}
	fmt.Println("bit-serial garbled pipeline verified ✓")
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

package gc_test

import (
	"crypto/rand"
	"fmt"
	"log"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// Garble a comparator and evaluate it: the garbler holds x, the
// evaluator holds y, and only x ≥ y is revealed.
func Example() {
	b := circuit.NewBuilder()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	b.Outputs(b.GEq(x, y))
	ckt := b.MustBuild()

	params := gc.DefaultParams()
	garbler, err := gc.NewGarbler(params, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	garbled, err := garbler.Garble(ckt, gc.GarbleOptions{
		GarblerInputs: circuit.Uint64ToBits(170, 8),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The evaluator obtains its input labels through OT; here the
	// pickup is in-process.
	yBits := circuit.Uint64ToBits(90, 8)
	active := make([]label.Label, len(yBits))
	for i, v := range yBits {
		active[i] = garbled.EvalPairs[i].Get(v)
	}
	res, err := gc.Evaluate(params, ckt, &garbled.Material, active, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("170 >= 90:", res.Outputs[0])
	fmt.Println("garbled tables:", garbled.Material.NumTables)
	// Output:
	// 170 >= 90: true
	// garbled tables: 8
}

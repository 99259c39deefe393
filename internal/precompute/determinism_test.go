package precompute

// Property tests for the two invariants the offline/online split rests
// on (ISSUE 5):
//
//  1. Determinism — for a fixed RNG seed, a precomputed entry's garbled
//     material is byte-identical to inline garbling of the same shape.
//     This is what makes "pool hit" and "pool miss" indistinguishable
//     on the wire, and what lets an entry be audited from its seed.
//  2. Single use — a consumed entry can never be served twice (the
//     racing half of this lives in TestEntrySingleUseRaced).

import (
	"bytes"
	"math/rand"
	"testing"

	"maxelerator/internal/gc"
)

// TestEntryMatchesInlineGarbling sweeps seeds and shapes: an entry
// built from seed S and bound to matrix A must be byte-identical —
// material and OT pairs — to the request garbler run from the same seed
// on A, rows striped over two lanes as serveRows garbles them.
func TestEntryMatchesInlineGarbling(t *testing.T) {
	eng := testEngine(t, Config{})
	sim := eng.sim
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		rows, cols := 1+rng.Intn(3), 1+rng.Intn(4)
		shape := Shape{Rows: rows, Cols: cols, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
		var seed [16]byte
		rng.Read(seed[:])
		A := make([][]int64, rows)
		for i := range A {
			A[i] = make([]int64, cols)
			for j := range A[i] {
				A[i][j] = int64(rng.Intn(255) - 128)
			}
		}

		ent, err := eng.buildFromSeed(shape, seed)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := ent.Bind(A)
		if err != nil {
			t.Fatal(err)
		}

		req, err := gc.NewRequest(sim.Config().Params, sim.Circuit(), cols, seed)
		if err != nil {
			t.Fatal(err)
		}
		lanes := []*gc.Lane{req.Lane(), req.Lane()}
		for i, x := range A {
			var want []*gc.Garbled
			err := lanes[i%2].GarbleRow(i, x, func(_ int, gb *gc.Garbled) error {
				want = append(want, gb)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(bound[i].Rounds) {
				t.Fatalf("trial %d row %d: %d rounds, want %d", trial, i, len(bound[i].Rounds), len(want))
			}
			for r := range want {
				wm, err := gc.MarshalMaterial(&want[r].Material)
				if err != nil {
					t.Fatal(err)
				}
				gm, err := gc.MarshalMaterial(&bound[i].Rounds[r].Material)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wm, gm) {
					t.Fatalf("trial %d row %d round %d: precomputed material differs from inline", trial, i, r)
				}
				for p := range want[r].EvalPairs {
					if want[r].EvalPairs[p] != bound[i].Rounds[r].EvalPairs[p] {
						t.Fatalf("trial %d row %d round %d: eval pair %d differs", trial, i, r, p)
					}
				}
			}
		}
	}
}

// TestEntriesAreIndependent: two entries of the same shape from
// different seeds share no material — each entry is its own garbling
// with its own free-XOR offset, which is why consuming entries
// one-per-request preserves the fresh-labels requirement.
func TestEntriesAreIndependent(t *testing.T) {
	eng := testEngine(t, Config{})
	shape := Shape{Rows: 1, Cols: 2, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
	a, err := eng.buildFromSeed(shape, [16]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.buildFromSeed(shape, [16]byte{2})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Bind([][]int64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Bind([][]int64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := gc.MarshalMaterial(&ra[0].Rounds[0].Material)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := gc.MarshalMaterial(&rb[0].Rounds[0].Material)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ma, mb) {
		t.Fatal("different seeds produced identical material")
	}
	if ra[0].Rounds[0].EvalPairs[0] == rb[0].Rounds[0].EvalPairs[0] {
		t.Fatal("different seeds produced identical eval pairs")
	}
}

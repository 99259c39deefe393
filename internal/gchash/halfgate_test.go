package gchash

import (
	"bytes"
	"fmt"
	"math"
	mrand "math/rand"
	"slices"
	"strings"
	"testing"

	"maxelerator/internal/label"
)

// randomLabel draws a label from rng, with bit 127 set half the time so
// the doubling's reduction fires.
func randomLabel(rng *mrand.Rand) label.Label {
	var l label.Label
	rng.Read(l[:])
	return l
}

// slotGate is one AND over a test's label slots and tables.
type slotGate struct{ A, B, Out, Table uint32 }

// bundleCase is one call of the bundle kernels.
type bundleCase struct {
	name  string
	gates []slotGate
	tweak uint64
}

// resolve points the gates of tc at slots and tables, gate g hashing
// under tc.tweak + 2·(its table), as a walker does.
func (tc *bundleCase) resolve(slots []label.Label, tables []byte) []HalfGate {
	g := make([]HalfGate, len(tc.gates))
	for i, sg := range tc.gates {
		g[i] = HalfGate{A: &slots[sg.A], B: &slots[sg.B], Out: &slots[sg.Out],
			Table: (*[TableStride]byte)(tables[sg.Table*TableStride:]), Tweak: tc.tweak + 2*uint64(sg.Table)}
	}
	return g
}

// bundleCases draws the gates the kernels are checked on: singles and
// pairs over distinct slots, a gate reading one wire twice, and pairs
// whose second output overwrites a slot the first gate reads, under
// random tweaks and tweaks at the top of the range.
func bundleCases(rng *mrand.Rand, nSlots, nTables int) []bundleCase {
	gate := func() slotGate {
		p := rng.Perm(nSlots)
		return slotGate{A: uint32(p[0]), B: uint32(p[1]), Out: uint32(p[2]), Table: uint32(rng.Intn(nTables))}
	}
	// pair returns two gates where the second reads neither the first's
	// output nor writes a slot the first writes.
	pair := func() []slotGate {
		for {
			g0, g1 := gate(), gate()
			if g1.A != g0.Out && g1.B != g0.Out && g1.Out != g0.Out && g1.Table != g0.Table {
				return []slotGate{g0, g1}
			}
		}
	}
	var cases []bundleCase
	for _, tw := range []uint64{rng.Uint64(), 0, math.MaxUint64 - 2*uint64(nTables), math.MaxUint64 - 1, math.MaxUint64} {
		for i := 0; i < 8; i++ {
			cases = append(cases,
				bundleCase{"single", []slotGate{gate()}, tw},
				bundleCase{"pair", pair(), tw})
		}
		same := gate()
		same.B = same.A
		cases = append(cases, bundleCase{"single a=b", []slotGate{same}, tw})
		for _, onA := range []bool{true, false} {
			g := pair()
			if onA {
				g[1].Out = g[0].A
			} else {
				g[1].Out = g[0].B
			}
			if g[1].Out == g[1].A || g[1].Out == g[1].B {
				continue
			}
			cases = append(cases, bundleCase{fmt.Sprintf("pair, out aliases first's input (a=%v)", onA), g, tw})
		}
	}
	return cases
}

// TestBundleKernelsMatchGeneric: GarbleANDs and EvalANDs are the
// portable one-gate-at-a-time loops bit for bit — slots and tables,
// every byte — on random labels and Δ, for single ANDs and bundles of
// two, with tweaks at the top of the range (T+1 and 2·Index wrapping),
// and when the bundle's second output overwrites an input of the first.
// The evaluated output is also the AND of the chosen values. Under
// purego, or on a CPU without AES-NI, both sides are the portable path.
func TestBundleKernelsMatchGeneric(t *testing.T) {
	const nSlots, nTables = 6, 4
	h := MustAES()
	rng := mrand.New(mrand.NewSource(48))
	for trial := 0; trial < 20; trial++ {
		delta := randomLabel(rng)
		delta[0] |= 1 // the free-XOR offset's permute bit
		for _, tc := range bundleCases(rng, nSlots, nTables) {
			slots := make([]label.Label, nSlots)
			for i := range slots {
				slots[i] = randomLabel(rng)
			}
			gotSlots, wantSlots := slices.Clone(slots), slices.Clone(slots)
			gotTables, wantTables := make([]byte, nTables*TableStride), make([]byte, nTables*TableStride)
			var s ANDBlocks
			h.GarbleANDs(&s, &delta, tc.resolve(gotSlots, gotTables))
			h.garbleANDsGo(&s, &delta, tc.resolve(wantSlots, wantTables))
			if !slices.Equal(gotSlots, wantSlots) || !bytes.Equal(gotTables, wantTables) {
				t.Fatalf("trial %d, %s, tweak %#x: garbling kernel and portable loop disagree", trial, tc.name, tc.tweak)
			}

			// Evaluate on active labels for random values: the FALSE
			// labels the garbler read, flipped by Δ where the value is 1.
			vals := make([]bool, nSlots)
			active := make([]label.Label, nSlots)
			for i := range slots {
				vals[i] = rng.Intn(2) == 1
				active[i] = slots[i]
				if vals[i] {
					active[i].XorInto(&delta, &active[i])
				}
			}
			eGot, eWant := slices.Clone(active), slices.Clone(active)
			h.EvalANDs(&s, tc.resolve(eGot, gotTables))
			h.evalANDsGo(&s, tc.resolve(eWant, gotTables))
			if !slices.Equal(eGot, eWant) {
				t.Fatalf("trial %d, %s, tweak %#x: evaluation kernel and portable loop disagree", trial, tc.name, tc.tweak)
			}
			for _, g := range tc.gates {
				out := gotSlots[g.Out] // the FALSE output label
				if vals[g.A] && vals[g.B] {
					out.XorInto(&delta, &out)
				}
				if eGot[g.Out] != out {
					t.Fatalf("trial %d, %s: evaluated %v AND %v to neither label of the right value", trial, tc.name, vals[g.A], vals[g.B])
				}
			}
		}
	}
}

// TestBundleKernelsAllocateNothing: a bundle of two, garbled and
// evaluated over scratch already on the heap, costs no heap object.
func TestBundleKernelsAllocateNothing(t *testing.T) {
	h := MustAES()
	s, delta := new(ANDBlocks), new(label.Label)
	w, tables := make([]label.Label, 6), make([]byte, 2*TableStride)
	tc := bundleCase{gates: []slotGate{{A: 0, B: 1, Out: 2, Table: 0}, {A: 3, B: 4, Out: 0, Table: 1}}}
	g := tc.resolve(w, tables)
	if n := testing.AllocsPerRun(100, func() { h.GarbleANDs(s, delta, g); h.EvalANDs(s, g) }); n != 0 {
		t.Fatalf("a bundle allocates %.0f objects", n)
	}
}

// TestBundleKernelsRejectOtherSizes: a bundle is one AND or two; any
// other count panics, naming the rule, before any label is read.
func TestBundleKernelsRejectOtherSizes(t *testing.T) {
	h := MustAES()
	for _, n := range []int{0, 3} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "gchash: a bundle holds 1 or 2 ANDs") {
					t.Errorf("a bundle of %d panicked with %q, want the size message", n, msg)
				}
			}()
			if n == 0 {
				h.GarbleANDs(new(ANDBlocks), new(label.Label), nil)
			} else {
				h.EvalANDs(new(ANDBlocks), make([]HalfGate, n))
			}
		}()
	}
}

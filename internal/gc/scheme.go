// Package gc implements Yao's garbled circuit protocol with the four
// optimisations MAXelerator adopts (§2.2 of the paper): free XOR
// (Kolesnikov–Schneider), row reduction (Naor–Pinkas–Sumner), half
// gates (Zahur–Rosulek–Evans) and fixed-key block-cipher garbling
// (Bellare et al.). The garbler and evaluator operate on the netlists
// of package circuit. Sequential (multi-round) execution in the style
// of TinyGarble is built in: state labels carry from round to round
// through GarbleOptions.State0 and EvalResult.StateActive, and a
// Garbler's tweak cursor keeps every round of every chain on fresh
// tweaks under its Δ. A Request garbles the rows of one matrix request
// under one Δ on any number of lanes, each row on labels and tweaks
// fixed by its index.
//
// Three AND-garbling schemes are provided behind the Scheme interface:
// the paper's production scheme (half gates, 2 ciphertexts per AND)
// plus classic 4-row and row-reduced 3-row tables used by the ablation
// benchmarks to quantify what each optimisation buys.
package gc

import (
	"fmt"

	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
)

// Scheme garbles and evaluates a single AND gate. XOR gates are always
// free and handled outside the scheme. Implementations are stateless
// and safe for concurrent use.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// TableSize is the number of ciphertexts (labels) per AND gate.
	TableSize() int
	// TweaksPerGate is how many hash tweaks one AND consumes.
	TweaksPerGate() uint64
	// GarbleAND produces the FALSE output label and the garbled table
	// for an AND of wires with FALSE labels a0, b0.
	GarbleAND(h gchash.Hasher, delta label.Delta, a0, b0 label.Label, tweak uint64) (out0 label.Label, table []label.Label)
	// EvalAND recovers the active output label from active input labels
	// and the garbled table.
	EvalAND(h gchash.Hasher, a, b label.Label, table []label.Label, tweak uint64) (label.Label, error)
}

// HalfGates is the paper's scheme: 2 ciphertexts and 4 hash calls per
// AND when garbling, 2 hash calls when evaluating.
type HalfGates struct{}

// Name implements Scheme.
func (HalfGates) Name() string { return "half-gates" }

// TableSize implements Scheme.
func (HalfGates) TableSize() int { return 2 }

// TweaksPerGate implements Scheme.
func (HalfGates) TweaksPerGate() uint64 { return 2 }

// GarbleAND implements Scheme using the generator/evaluator half-gate
// decomposition of Zahur, Rosulek and Evans.
func (HalfGates) GarbleAND(h gchash.Hasher, delta label.Delta, a0, b0 label.Label, tweak uint64) (label.Label, []label.Label) {
	a1 := delta.Flip(a0)
	b1 := delta.Flip(b0)
	pa := a0.LSB()
	pb := b0.LSB()

	// Generator half gate: computes a ∧ pb-known-to-garbler part.
	ha0 := h.Hash(a0, tweak)
	ha1 := h.Hash(a1, tweak)
	tg := ha0.Xor(ha1)
	if pb {
		tg = tg.Xor(delta.Label())
	}
	wg0 := ha0
	if pa {
		wg0 = wg0.Xor(tg)
	}

	// Evaluator half gate.
	hb0 := h.Hash(b0, tweak+1)
	hb1 := h.Hash(b1, tweak+1)
	te := hb0.Xor(hb1).Xor(a0)
	we0 := hb0
	if pb {
		we0 = we0.Xor(te.Xor(a0))
	}

	return wg0.Xor(we0), []label.Label{tg, te}
}

// EvalAND implements Scheme.
func (HalfGates) EvalAND(h gchash.Hasher, a, b label.Label, table []label.Label, tweak uint64) (label.Label, error) {
	if len(table) != 2 {
		return label.Zero, fmt.Errorf("gc: half-gates table has %d rows, want 2", len(table))
	}
	wg := h.Hash(a, tweak)
	if a.LSB() {
		wg = wg.Xor(table[0])
	}
	we := h.Hash(b, tweak+1)
	if b.LSB() {
		we = we.Xor(table[1].Xor(a))
	}
	return wg.Xor(we), nil
}

// hash2 is the double-input hash used by the table-based schemes:
// H₂(a, b, T) = H(2a ⊕ 4b, T). The independent GF(2^128) doublings
// keep (a,b) and (b,a) separated.
func hash2(h gchash.Hasher, a, b label.Label, tweak uint64) label.Label {
	return h.Hash(a.Double().Xor(b.Quadruple()), tweak)
}

// FourRow is the classical point-and-permute scheme: 4 ciphertexts per
// AND, no row reduction. Kept for the ablation study.
type FourRow struct{}

// Name implements Scheme.
func (FourRow) Name() string { return "four-row" }

// TableSize implements Scheme.
func (FourRow) TableSize() int { return 4 }

// TweaksPerGate implements Scheme.
func (FourRow) TweaksPerGate() uint64 { return 2 }

// GarbleAND implements Scheme.
func (FourRow) GarbleAND(h gchash.Hasher, delta label.Delta, a0, b0 label.Label, tweak uint64) (label.Label, []label.Label) {
	out0 := label.MustRandom()
	// Keep the output pair correlated for downstream free XOR.
	table := make([]label.Label, 4)
	for _, va := range []bool{false, true} {
		av := a0
		if va {
			av = delta.Flip(a0)
		}
		for _, vb := range []bool{false, true} {
			bv := b0
			if vb {
				bv = delta.Flip(b0)
			}
			outv := out0
			if va && vb {
				outv = delta.Flip(out0)
			}
			row := int(av.SelectBit())<<1 | int(bv.SelectBit())
			table[row] = hash2(h, av, bv, tweak).Xor(outv)
		}
	}
	return out0, table
}

// EvalAND implements Scheme.
func (FourRow) EvalAND(h gchash.Hasher, a, b label.Label, table []label.Label, tweak uint64) (label.Label, error) {
	if len(table) != 4 {
		return label.Zero, fmt.Errorf("gc: four-row table has %d rows, want 4", len(table))
	}
	row := int(a.SelectBit())<<1 | int(b.SelectBit())
	return hash2(h, a, b, tweak).Xor(table[row]), nil
}

// GRR3 is the row-reduction scheme of Naor, Pinkas and Sumner: the
// ciphertext of the select-bit-(0,0) row is fixed to zero by deriving
// the output label from the hash, shrinking tables by 25%.
type GRR3 struct{}

// Name implements Scheme.
func (GRR3) Name() string { return "grr3" }

// TableSize implements Scheme.
func (GRR3) TableSize() int { return 3 }

// TweaksPerGate implements Scheme.
func (GRR3) TweaksPerGate() uint64 { return 2 }

// GarbleAND implements Scheme.
func (GRR3) GarbleAND(h gchash.Hasher, delta label.Delta, a0, b0 label.Label, tweak uint64) (label.Label, []label.Label) {
	// The (select 0, select 0) row corresponds to truth values
	// (va, vb) = (pa, pb), because X^v has select bit lsb(X⁰) ⊕ v. Its
	// ciphertext is defined to be all zeros, so the output label for
	// value pa∧pb equals that row's hash and is never transmitted.
	pa := a0.LSB()
	pb := b0.LSB()
	var out0 label.Label
	rowVal := func(va, vb bool) bool { return va && vb }

	// First pass: fix out0 from the zero row.
	{
		va, vb := pa, pb
		av, bv := a0, b0
		if va {
			av = delta.Flip(a0)
		}
		if vb {
			bv = delta.Flip(b0)
		}
		hv := hash2(h, av, bv, tweak)
		if rowVal(va, vb) {
			out0 = delta.Flip(hv) // hv encodes TRUE ⇒ out0 = hv ⊕ Δ
		} else {
			out0 = hv
		}
	}

	table := make([]label.Label, 3)
	for _, va := range []bool{false, true} {
		av := a0
		if va {
			av = delta.Flip(a0)
		}
		for _, vb := range []bool{false, true} {
			bv := b0
			if vb {
				bv = delta.Flip(b0)
			}
			row := int(av.SelectBit())<<1 | int(bv.SelectBit())
			if row == 0 {
				continue // implicit all-zero ciphertext
			}
			outv := out0
			if rowVal(va, vb) {
				outv = delta.Flip(out0)
			}
			table[row-1] = hash2(h, av, bv, tweak).Xor(outv)
		}
	}
	return out0, table
}

// EvalAND implements Scheme.
func (GRR3) EvalAND(h gchash.Hasher, a, b label.Label, table []label.Label, tweak uint64) (label.Label, error) {
	if len(table) != 3 {
		return label.Zero, fmt.Errorf("gc: grr3 table has %d rows, want 3", len(table))
	}
	row := int(a.SelectBit())<<1 | int(b.SelectBit())
	hv := hash2(h, a, b, tweak)
	if row == 0 {
		return hv, nil
	}
	return hv.Xor(table[row-1]), nil
}

var (
	_ Scheme = HalfGates{}
	_ Scheme = FourRow{}
	_ Scheme = GRR3{}
)

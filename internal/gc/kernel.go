package gc

import (
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
)

// The AND step of the serve path: half gates over fixed-key AES with the
// Scheme and Hasher interfaces resolved away. The arithmetic is exactly
// HalfGates.GarbleAND / EvalAND (scheme.go) — those stay as the
// reference TestKernelMatchesSchemeInterface compares these against,
// byte for byte — but labels move through pointers and XorInto, the four
// (two) hashes of a gate go through one gchash.HashAND call over
// caller-owned scratch, and the table rows are written to / read from
// the material block where they lie. Nothing here allocates.

// halfGateRows is the half-gate table size; halfGateStride its extent in
// a table block (row-count byte + rows).
const (
	halfGateRows   = 2
	halfGateStride = 1 + halfGateRows*label.Size
)

// garbleHalfGate garbles one AND of wires with FALSE labels a0, b0: it
// stores the FALSE output label in out and the table (row count, T_G,
// T_E) in table, which must be halfGateStride bytes. out must not alias
// a0 or b0 (circuit.Program guarantees it).
func (g *Garbler) garbleHalfGate(a0, b0, out *label.Label, table []byte, tweak uint64) {
	s, delta := &g.and, &g.deltaLabel
	s.X[0] = *a0
	a0.XorInto(delta, &s.X[1])
	s.X[2] = *b0
	b0.XorInto(delta, &s.X[3])
	g.aes.HashAND(s, 4, tweak)
	ha0, ha1, hb0, hb1 := &s.H[0], &s.H[1], &s.H[2], &s.H[3]
	pa, pb := a0.LSB(), b0.LSB()

	table[0] = halfGateRows
	tg := (*label.Label)(table[1 : 1+label.Size])
	te := (*label.Label)(table[1+label.Size : halfGateStride])

	// Generator half gate: T_G = H(a⁰) ⊕ H(a¹) ⊕ p_b·Δ,
	// W_G⁰ = H(a⁰) ⊕ p_a·T_G.
	ha0.XorInto(ha1, tg)
	if pb {
		tg.XorInto(delta, tg)
	}
	wg := *ha0
	if pa {
		wg.XorInto(tg, &wg)
	}
	// Evaluator half gate: T_E = H(b⁰) ⊕ H(b¹) ⊕ a⁰,
	// W_E⁰ = H(b⁰) ⊕ p_b·(T_E ⊕ a⁰).
	hb0.XorInto(hb1, te)
	we := *hb0
	if pb {
		we.XorInto(te, &we)
	}
	te.XorInto(a0, te)
	wg.XorInto(&we, out)
}

// evalHalfGate recovers the active output label of one AND from the
// active input labels a, b and the gate's two table rows.
func evalHalfGate(h *gchash.AES, s *gchash.ANDBlocks, a, b, out *label.Label, tg, te *label.Label, tweak uint64) {
	s.X[0], s.X[1] = *a, *b
	h.HashAND(s, 2, tweak)
	wg, we := s.H[0], s.H[1]
	if a.LSB() {
		wg.XorInto(tg, &wg)
	}
	if b.LSB() {
		we.XorInto(te, &we)
		we.XorInto(a, &we)
	}
	wg.XorInto(&we, out)
}

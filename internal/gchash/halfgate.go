package gchash

import (
	"fmt"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// The half-gate AND of Zahur, Rosulek and Evans over the fixed-key hash.
// For a gate with FALSE input labels a⁰, b⁰, permute bits
// p_a = lsb(a⁰), p_b = lsb(b⁰), tweaks T and T+1:
//
//	T_G  = H(a⁰, T) ⊕ H(a¹, T) ⊕ p_b·Δ
//	T_E  = H(b⁰, T+1) ⊕ H(b¹, T+1) ⊕ a⁰
//	out⁰ = H(a⁰, T) ⊕ p_a·T_G ⊕ H(b⁰, T+1) ⊕ p_b·(T_E ⊕ a⁰)
//
// and the evaluator, holding active labels a, b, recovers
// H(a, T) ⊕ lsb(a)·T_G ⊕ H(b, T+1) ⊕ lsb(b)·(T_E ⊕ a). gc's
// HalfGates.GarbleAND / EvalAND are the same arithmetic through the
// Hasher interface, the reference the walks are tested against.

// TableStride is the extent of one half-gate table in a table block:
// T_G, then T_E. No table carries its row count: the scheme fixes it.
const TableStride = 2 * label.Size

// GarbleProgram garbles one round of p under Δ in a single walk. On
// entry slots[:p.InputSpan()] hold the FALSE labels of the constants,
// inputs and state; the walk runs every instruction over slots, AND k
// writing its table (T_G, T_E) to tables[k·TableStride:] and
// hashing under tweak+2k and tweak+2k+1 (modulo 2⁶⁴); afterwards
// p.Outputs and p.StateOuts name the slots holding the results' FALSE
// labels. s is scratch for the portable walk, whose cipher makes it
// escape: a walker keeps one on the heap and reuses it. It allocates
// nothing. A program that fails p.Check, fewer than p.NSlots slots, or
// a table block other than p.NAND·TableStride bytes is refused with an
// error before any slot is touched.
func (h *AES) GarbleProgram(s *ANDBlocks, p *circuit.Program, slots []label.Label, tables []byte, delta *label.Label, tweak uint64) error {
	if err := checkWalk(p, slots, tables); err != nil {
		return err
	}
	h.garbleProgram(s, p.Instrs, slots, tables, delta, tweak)
	return nil
}

// EvalProgram evaluates one round of p in a single walk: slots hold the
// active input labels on entry and the active results after, each AND
// reading T_G and T_E from its table in tables. The block is outside
// input, and its length is all there is to check. The scratch, the
// tweaks and the refusals are GarbleProgram's.
func (h *AES) EvalProgram(s *ANDBlocks, p *circuit.Program, slots []label.Label, tables []byte, tweak uint64) error {
	if err := checkWalk(p, slots, tables); err != nil {
		return err
	}
	h.evalProgram(s, p.Instrs, slots, tables, tweak)
	return nil
}

// checkWalk holds a walk's arguments to the bounds the kernels index by
// without checks: the program's own (Check, a no-op once passed) and
// the two arrays'.
func checkWalk(p *circuit.Program, slots []label.Label, tables []byte) error {
	if err := p.Check(); err != nil {
		return err
	}
	if len(slots) < p.NSlots {
		return fmt.Errorf("gchash: %d slots for a program of %d", len(slots), p.NSlots)
	}
	if len(tables) != p.NAND*TableStride {
		return fmt.Errorf("gchash: table block of %d bytes for %d ANDs, want %d", len(tables), p.NAND, p.NAND*TableStride)
	}
	return nil
}

// garbleProgramGo is the portable GarbleProgram: the fallback, and the
// reference the kernel is tested against. It runs one instruction at a
// time, so it ignores bundles.
func (h *AES) garbleProgramGo(s *ANDBlocks, instrs []circuit.Instr, w []label.Label, tables []byte, delta *label.Label, tweak uint64) {
	for _, in := range instrs {
		if in.Op() == circuit.XOR {
			w[in.A].XorInto(&w[in.B], &w[in.Out])
			continue
		}
		k := int(in.Index())
		h.garbleANDGo(s, delta, &w[in.A], &w[in.B], &w[in.Out], (*[TableStride]byte)(tables[k*TableStride:]), tweak+2*uint64(k))
	}
}

// evalProgramGo is the portable EvalProgram, one instruction at a
// time.
func (h *AES) evalProgramGo(s *ANDBlocks, instrs []circuit.Instr, w []label.Label, tables []byte, tweak uint64) {
	for _, in := range instrs {
		if in.Op() == circuit.XOR {
			w[in.A].XorInto(&w[in.B], &w[in.Out])
			continue
		}
		k := int(in.Index())
		h.evalANDGo(s, &w[in.A], &w[in.B], &w[in.Out], (*[TableStride]byte)(tables[k*TableStride:]), tweak+2*uint64(k))
	}
}

// garbleANDGo garbles one AND with FALSE input labels a0, b0 under Δ
// through hashANDGo, writing its table and its FALSE output label.
func (h *AES) garbleANDGo(s *ANDBlocks, delta, a0, b0, out *label.Label, table *[TableStride]byte, tweak uint64) {
	s.X[0] = *a0
	a0.XorInto(delta, &s.X[1])
	s.X[2] = *b0
	b0.XorInto(delta, &s.X[3])
	h.hashANDGo(s, 4, tweak)
	ha0, ha1, hb0, hb1 := &s.H[0], &s.H[1], &s.H[2], &s.H[3]
	pa, pb := a0.LSB(), b0.LSB()

	tg := (*label.Label)(table[:label.Size])
	te := (*label.Label)(table[label.Size:])
	ha0.XorInto(ha1, tg)
	if pb {
		tg.XorInto(delta, tg)
	}
	wg := *ha0
	if pa {
		wg.XorInto(tg, &wg)
	}
	hb0.XorInto(hb1, te)
	we := *hb0
	if pb {
		we.XorInto(te, &we)
	}
	te.XorInto(a0, te)
	wg.XorInto(&we, out)
}

// evalANDGo evaluates one AND from active labels a, b and its table.
func (h *AES) evalANDGo(s *ANDBlocks, a, b, out *label.Label, table *[TableStride]byte, tweak uint64) {
	s.X[0], s.X[1] = *a, *b
	h.hashANDGo(s, 2, tweak)
	wg, we := s.H[0], s.H[1]
	if a.LSB() {
		wg.XorInto((*label.Label)(table[:label.Size]), &wg)
	}
	if b.LSB() {
		we.XorInto((*label.Label)(table[label.Size:]), &we)
		we.XorInto(a, &we)
	}
	wg.XorInto(&we, out)
}

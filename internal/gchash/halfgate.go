package gchash

import "maxelerator/internal/label"

// The half-gate AND of Zahur, Rosulek and Evans over the fixed-key hash,
// a bundle of up to two gates a call. For a gate with FALSE input labels
// a⁰, b⁰, permute bits p_a = lsb(a⁰), p_b = lsb(b⁰), tweaks T and T+1:
//
//	T_G  = H(a⁰, T) ⊕ H(a¹, T) ⊕ p_b·Δ
//	T_E  = H(b⁰, T+1) ⊕ H(b¹, T+1) ⊕ a⁰
//	out⁰ = H(a⁰, T) ⊕ p_a·T_G ⊕ H(b⁰, T+1) ⊕ p_b·(T_E ⊕ a⁰)
//
// and the evaluator, holding active labels a, b, recovers
// H(a, T) ⊕ lsb(a)·T_G ⊕ H(b, T+1) ⊕ lsb(b)·(T_E ⊕ a). gc's
// HalfGates.GarbleAND / EvalAND are the same arithmetic through the
// Hasher interface, the reference the walkers are tested against.

// TableStride is the extent of one half-gate table in a table block:
// the row-count byte (2), then T_G and T_E.
const TableStride = 1 + 2*label.Size

// HalfGate is one AND as the bundle kernels take it: its input and
// output labels, its table (TableStride bytes), and its first tweak —
// wire a hashes under Tweak, wire b under Tweak+1 (modulo 2⁶⁴).
type HalfGate struct {
	A, B, Out *label.Label
	Table     *[TableStride]byte
	Tweak     uint64
}

// GarbleANDs garbles g, one AND or a bundle of two, under Δ: each gate's
// table (row count, T_G, T_E) goes to its Table and its FALSE output
// label to its Out. Every input label is read before any output is
// written, so the second gate's Out may be a label the first reads; the
// second gate must not read the first's output. s is scratch for the
// portable path, whose cipher makes it escape: a walker keeps one on
// the heap and reuses it. It allocates nothing. Any other len(g)
// panics.
func (h *AES) GarbleANDs(s *ANDBlocks, delta *label.Label, g []HalfGate) {
	checkBundle(len(g))
	h.garbleANDs(s, delta, g)
}

// EvalANDs evaluates g, one AND or a bundle of two, writing each gate's
// active output label to its Out from its active input labels and its
// table's T_G and T_E; the row-count byte is the caller's to check.
// The aliasing rule, the scratch and the panic are GarbleANDs'.
func (h *AES) EvalANDs(s *ANDBlocks, g []HalfGate) {
	checkBundle(len(g))
	h.evalANDs(s, g)
}

// checkBundle panics unless n is a bundle's size. Its message is a
// constant, so that GarbleANDs and EvalANDs inline into the walkers.
func checkBundle(n int) {
	if n != 1 && n != 2 {
		panic("gchash: a bundle holds 1 or 2 ANDs")
	}
}

// garbleANDsGo is the portable GarbleANDs: the fallback, and the oracle
// the kernel is tested against. It garbles one gate at a time, through
// hashANDGo.
func (h *AES) garbleANDsGo(s *ANDBlocks, delta *label.Label, g []HalfGate) {
	for i := range g {
		r := &g[i]
		a0, b0 := r.A, r.B
		s.X[0] = *a0
		a0.XorInto(delta, &s.X[1])
		s.X[2] = *b0
		b0.XorInto(delta, &s.X[3])
		h.hashANDGo(s, 4, r.Tweak)
		ha0, ha1, hb0, hb1 := &s.H[0], &s.H[1], &s.H[2], &s.H[3]
		pa, pb := a0.LSB(), b0.LSB()

		r.Table[0] = 2
		tg := (*label.Label)(r.Table[1 : 1+label.Size])
		te := (*label.Label)(r.Table[1+label.Size:])
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
		wg.XorInto(&we, r.Out)
	}
}

// evalANDsGo is the portable EvalANDs, one gate at a time.
func (h *AES) evalANDsGo(s *ANDBlocks, g []HalfGate) {
	for i := range g {
		r := &g[i]
		a, b := r.A, r.B
		s.X[0], s.X[1] = *a, *b
		h.hashANDGo(s, 2, r.Tweak)
		wg, we := s.H[0], s.H[1]
		if a.LSB() {
			wg.XorInto((*label.Label)(r.Table[1:1+label.Size]), &wg)
		}
		if b.LSB() {
			we.XorInto((*label.Label)(r.Table[1+label.Size:]), &we)
			we.XorInto(a, &we)
		}
		wg.XorInto(&we, r.Out)
	}
}

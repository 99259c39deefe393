//go:build !purego

package gchash

import "maxelerator/internal/label"

// useKernel reports whether gchash encrypts with the AES-NI kernels of
// hashand_amd64.s. A CPU without AES-NI takes the portable loops.
var useKernel = hasAESNI()

func hasAESNI() bool

// hashAND4 hashes s.X[0..1] under tweak and s.X[2..3] under tweak+1
// into s.H[0..3] with the expanded schedule rk.
//
//go:noescape
func hashAND4(rk *[11][16]byte, s *ANDBlocks, tweak uint64)

// hashAND2 hashes s.X[0] under tweak and s.X[1] under tweak+1 into
// s.H[0..1] with the expanded schedule rk.
//
//go:noescape
func hashAND2(rk *[11][16]byte, s *ANDBlocks, tweak uint64)

// garbleBundle garbles the n (1 or 2) gates at gates under Δ with the
// expanded schedule rk: GarbleANDs' kernel.
//
//go:noescape
func garbleBundle(rk *[11][16]byte, delta *label.Label, gates *HalfGate, n int)

// evalBundle evaluates the n (1 or 2) gates at gates with the expanded
// schedule rk: EvalANDs' kernel.
//
//go:noescape
func evalBundle(rk *[11][16]byte, gates *HalfGate, n int)

// ctrBlocks fills dst, whole blocks, with AES(hi ‖ lo+n) under the
// expanded schedule rk for n = 0, 1, …, lo wrapping without a carry.
//
//go:noescape
func ctrBlocks(rk *[11][16]byte, hi, lo uint64, dst []byte)

// tccr8 is HashRows with the expanded schedule rk.
//
//go:noescape
func tccr8(rk *[11][16]byte, x *[8]label.Label, j uint64, h *[8]label.Label)

func encryptCounters(s *Schedule, hi, lo uint64, dst []byte) {
	if !useKernel {
		encryptCountersGo(s.block, hi, lo, dst)
		return
	}
	ctrBlocks(&s.rk, hi, lo, dst)
}

func hashRows(x *[8]label.Label, j uint64, h *[8]label.Label) {
	if !useKernel {
		hashRowsGo(x, j, h)
		return
	}
	tccr8(&rowKeys, x, j, h)
}

func (h *AES) hashAND(s *ANDBlocks, n int, tweak uint64) {
	switch {
	case !useKernel:
		h.hashANDGo(s, n, tweak)
	case n == 4:
		hashAND4(&roundKeys, s, tweak)
	default:
		hashAND2(&roundKeys, s, tweak)
	}
}

// hashInto runs the evaluator's two-label kernel with a zero second
// label, over scratch that stays on the stack.
func (h *AES) hashInto(x *label.Label, tweak uint64, dst *label.Label) {
	if !useKernel {
		h.hashIntoGo(x, tweak, dst)
		return
	}
	var s ANDBlocks
	s.X[0] = *x
	hashAND2(&roundKeys, &s, tweak)
	*dst = s.H[0]
}

func (h *AES) garbleANDs(s *ANDBlocks, delta *label.Label, g []HalfGate) {
	if !useKernel {
		h.garbleANDsGo(s, delta, g)
		return
	}
	garbleBundle(&roundKeys, delta, &g[0], len(g))
}

func (h *AES) evalANDs(s *ANDBlocks, g []HalfGate) {
	if !useKernel {
		h.evalANDsGo(s, g)
		return
	}
	evalBundle(&roundKeys, &g[0], len(g))
}

//go:build !purego

package gchash

import "maxelerator/internal/label"

// useKernel reports whether *AES hashes with the AES-NI kernel of
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

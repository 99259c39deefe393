//go:build !amd64 || purego

package gchash

import "maxelerator/internal/label"

// useKernel is false: off amd64, and under the purego tag, *AES hashes,
// counter blocks are encrypted and rows hashed with the portable loops
// through crypto/aes.
const useKernel = false

func (h *AES) hashAND(s *ANDBlocks, n int, tweak uint64) { h.hashANDGo(s, n, tweak) }

func (h *AES) garbleANDs(s *ANDBlocks, delta *label.Label, g []HalfGate) {
	h.garbleANDsGo(s, delta, g)
}

func (h *AES) evalANDs(s *ANDBlocks, g []HalfGate) { h.evalANDsGo(s, g) }

func (h *AES) hashInto(x *label.Label, tweak uint64, dst *label.Label) {
	h.hashIntoGo(x, tweak, dst)
}

func encryptCounters(s *Schedule, hi, lo uint64, dst []byte) {
	encryptCountersGo(s.block, hi, lo, dst)
}

func hashRows(x *[8]label.Label, j uint64, h *[8]label.Label) { hashRowsGo(x, j, h) }

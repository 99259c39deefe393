//go:build !amd64 || purego

package gchash

import "maxelerator/internal/label"

// useKernel is false: off amd64, and under the purego tag, *AES hashes
// with the portable loops through crypto/aes.
const useKernel = false

func (h *AES) hashAND(s *ANDBlocks, n int, tweak uint64) { h.hashANDGo(s, n, tweak) }

func (h *AES) hashInto(x *label.Label, tweak uint64, dst *label.Label) {
	h.hashIntoGo(x, tweak, dst)
}

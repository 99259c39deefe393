//go:build !amd64 || purego

package gchash

import (
	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// useKernel is false: off amd64, and under the purego tag, *AES hashes
// and walks programs, counter blocks are encrypted and rows hashed with
// the portable loops through crypto/aes.
const useKernel = false

func (h *AES) garbleProgram(s *ANDBlocks, instrs []circuit.Instr, slots []label.Label, tables []byte, delta *label.Label, tweak uint64) {
	h.garbleProgramGo(s, instrs, slots, tables, delta, tweak)
}

func (h *AES) evalProgram(s *ANDBlocks, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64) {
	h.evalProgramGo(s, instrs, slots, tables, tweak)
}

func (h *AES) hashInto(x *label.Label, tweak uint64, dst *label.Label) {
	h.hashIntoGo(x, tweak, dst)
}

func encryptCounters(s *Schedule, hi, lo uint64, dst []byte) {
	encryptCountersGo(s.block, hi, lo, dst)
}

func hashRows(x *[8]label.Label, j uint64, h *[8]label.Label) { hashRowsGo(x, j, h) }

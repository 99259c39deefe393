//go:build !purego

package gchash

import (
	"unsafe"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// useKernel reports whether gchash encrypts with the AES-NI kernels of
// hashand_amd64.s. A CPU without AES-NI takes the portable loops.
var useKernel = hasAESNI()

// bestWalk is the program walk this host runs fastest: the VAES walk of
// vwalk_amd64.s, else the SSE walk, else the portable one.
var bestWalk = pickWalk(useKernel, vaesWalkUsable(cpuidBits()))

func hasAESNI() bool

// cpuidBits returns the raw bits vaesWalkUsable decides on: CPUID leaf
// 7's EBX and ECX (zero when the CPU has no leaf 7) and XCR0's low word
// (zero when the OS has not enabled XGETBV).
func cpuidBits() (ebx7, ecx7, xcr0 uint32)

// The walks read circuit.Instr as it lies: A, B, Out and Tag at bytes
// 0, 4, 8 and 12 of a 16-byte record, an AND marked by the tag's sign
// bit and a bundle's head by bit 30 (hashand_amd64.s's INSTR_ and TAG_
// constants). Each line fails to compile if its side differs.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(circuit.Instr{})-16]
	_ = [1]struct{}{}[unsafe.Offsetof(circuit.Instr{}.B)-4]
	_ = [1]struct{}{}[unsafe.Offsetof(circuit.Instr{}.Out)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(circuit.Instr{}.Tag)-12]
	_ = [1]struct{}{}[circuit.ANDTag-1<<31]
	_ = [1]struct{}{}[circuit.PairTag-1<<30]
)

// hashAND2 hashes s.X[0] under tweak and s.X[1] under tweak+1 into
// s.H[0..1] with the expanded schedule rk.
//
//go:noescape
func hashAND2(rk *[11][16]byte, s *ANDBlocks, tweak uint64)

// garbleProgram is GarbleProgram's kernel, with the expanded schedule
// rk: one loop over instrs, an XOR two loads, a PXOR and a store, a
// single AND 4 AES states in flight and a bundle 8.
//
//go:noescape
func garbleProgram(rk *[11][16]byte, delta *label.Label, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)

// evalProgram is EvalProgram's kernel: a single AND 2 AES states in
// flight, a bundle 4.
//
//go:noescape
func evalProgram(rk *[11][16]byte, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)

// garbleProgramVAES is garbleProgram on zmm registers: a bundle's, or a
// single AND's, four FALSE and four TRUE keys in two registers.
//
//go:noescape
func garbleProgramVAES(rk *[11][16]byte, delta *label.Label, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)

// evalProgramVAES is evalProgram on zmm registers: a bundle's four keys
// in one register.
//
//go:noescape
func evalProgramVAES(rk *[11][16]byte, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)

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

func (h *AES) garbleProgram(s *ANDBlocks, instrs []circuit.Instr, slots []label.Label, tables []byte, delta *label.Label, tweak uint64) {
	switch walk {
	case walkVAES:
		garbleProgramVAES(&roundKeys, delta, instrs, slots, tables, tweak)
	case walkSSE:
		garbleProgram(&roundKeys, delta, instrs, slots, tables, tweak)
	default:
		h.garbleProgramGo(s, instrs, slots, tables, delta, tweak)
	}
}

func (h *AES) evalProgram(s *ANDBlocks, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64) {
	switch walk {
	case walkVAES:
		evalProgramVAES(&roundKeys, instrs, slots, tables, tweak)
	case walkSSE:
		evalProgram(&roundKeys, instrs, slots, tables, tweak)
	default:
		h.evalProgramGo(s, instrs, slots, tables, tweak)
	}
}

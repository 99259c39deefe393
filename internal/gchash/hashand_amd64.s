//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// The half-gate hash of one AND gate in one call: for each label x,
// K = 2·x ⊕ T is built in general-purpose registers, the AES-128
// states of all labels advance together round by round, and
// H = π(K) ⊕ K is stored into ANDBlocks.H. Only SSE2 and AES-NI are
// used; hasAESNI is the one feature probe.
//
// A label is 16 bytes read as a big-endian 128-bit integer for the
// doubling (byte 0 is the most significant) and as two little-endian
// words for the tweak, which is folded into bytes 0..7.

// KEY leaves K = 2·(label at off(SI)) ⊕ t in k and a copy in f.
// Clobbers AX, BX, CX.
#define KEY(off, t, k, f) \
	MOVQ   off(SI), AX; \
	MOVQ   off+8(SI), BX; \
	BSWAPQ AX; \
	BSWAPQ BX; \
	MOVQ   AX, CX; \
	SARQ   $63, CX; \
	ANDQ   $0x87, CX; \
	SHLQ   $1, BX, AX; \
	SHLQ   $1, BX; \
	XORQ   CX, BX; \
	BSWAPQ AX; \
	BSWAPQ BX; \
	XORQ   t, AX; \
	MOVQ   AX, k; \
	MOVQ   BX, f; \
	PUNPCKLQDQ f, k; \
	MOVOU  k, f

// ROUND4 / ROUND2 run one AES round (AESENC, or AESENCLAST as op) with
// round key i of the schedule at DX on the states in X0..X3 / X0..X1.
#define ROUND4(op, i) \
	MOVOU (16*i)(DX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3

#define ROUND2(op, i) \
	MOVOU (16*i)(DX), X8; \
	op    X8, X0; \
	op    X8, X1

// func hashAND4(rk *[11][16]byte, s *ANDBlocks, tweak uint64)
TEXT ·hashAND4(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), DX
	MOVQ s+8(FP), SI
	MOVQ tweak+16(FP), R8
	LEAQ 1(R8), R9

	KEY(ANDBlocks_X+0, R8, X0, X4)
	KEY(ANDBlocks_X+16, R8, X1, X5)
	KEY(ANDBlocks_X+32, R9, X2, X6)
	KEY(ANDBlocks_X+48, R9, X3, X7)

	MOVOU (DX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	ROUND4(AESENC, 1)
	ROUND4(AESENC, 2)
	ROUND4(AESENC, 3)
	ROUND4(AESENC, 4)
	ROUND4(AESENC, 5)
	ROUND4(AESENC, 6)
	ROUND4(AESENC, 7)
	ROUND4(AESENC, 8)
	ROUND4(AESENC, 9)
	ROUND4(AESENCLAST, 10)

	PXOR  X4, X0
	PXOR  X5, X1
	PXOR  X6, X2
	PXOR  X7, X3
	MOVOU X0, ANDBlocks_H+0(SI)
	MOVOU X1, ANDBlocks_H+16(SI)
	MOVOU X2, ANDBlocks_H+32(SI)
	MOVOU X3, ANDBlocks_H+48(SI)
	RET

// func hashAND2(rk *[11][16]byte, s *ANDBlocks, tweak uint64)
TEXT ·hashAND2(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), DX
	MOVQ s+8(FP), SI
	MOVQ tweak+16(FP), R8
	LEAQ 1(R8), R9

	KEY(ANDBlocks_X+0, R8, X0, X4)
	KEY(ANDBlocks_X+16, R9, X1, X5)

	MOVOU (DX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	ROUND2(AESENC, 1)
	ROUND2(AESENC, 2)
	ROUND2(AESENC, 3)
	ROUND2(AESENC, 4)
	ROUND2(AESENC, 5)
	ROUND2(AESENC, 6)
	ROUND2(AESENC, 7)
	ROUND2(AESENC, 8)
	ROUND2(AESENC, 9)
	ROUND2(AESENCLAST, 10)

	PXOR  X4, X0
	PXOR  X5, X1
	MOVOU X0, ANDBlocks_H+0(SI)
	MOVOU X1, ANDBlocks_H+16(SI)
	RET

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $25, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// The AES-NI kernels: the half-gate hash of an AND gate (hashAND4,
// hashAND2), counter-mode blocks under an expanded key (ctrBlocks), and
// the OT extension's row hash of eight rows (tccr8).
//
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

// ROUND8 runs one AES round (AESENC, or AESENCLAST as op) with round
// key i of the schedule at DX on the states in X0..X7, and ROUND1 on X0.
#define ROUND8(op, i) \
	MOVOU (16*i)(DX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3; \
	op    X8, X4; \
	op    X8, X5; \
	op    X8, X6; \
	op    X8, X7

#define ROUND1(op, i) \
	MOVOU (16*i)(DX), X8; \
	op    X8, X0

// ENC8 / ENC4 / ENC1 encrypt X0..X7 / X0..X3 / X0 in place with the
// schedule at DX.
#define ENC8 \
	MOVOU (DX), X8; \
	PXOR  X8, X0; \
	PXOR  X8, X1; \
	PXOR  X8, X2; \
	PXOR  X8, X3; \
	PXOR  X8, X4; \
	PXOR  X8, X5; \
	PXOR  X8, X6; \
	PXOR  X8, X7; \
	ROUND8(AESENC, 1); \
	ROUND8(AESENC, 2); \
	ROUND8(AESENC, 3); \
	ROUND8(AESENC, 4); \
	ROUND8(AESENC, 5); \
	ROUND8(AESENC, 6); \
	ROUND8(AESENC, 7); \
	ROUND8(AESENC, 8); \
	ROUND8(AESENC, 9); \
	ROUND8(AESENCLAST, 10)

#define ENC4 \
	MOVOU (DX), X8; \
	PXOR  X8, X0; \
	PXOR  X8, X1; \
	PXOR  X8, X2; \
	PXOR  X8, X3; \
	ROUND4(AESENC, 1); \
	ROUND4(AESENC, 2); \
	ROUND4(AESENC, 3); \
	ROUND4(AESENC, 4); \
	ROUND4(AESENC, 5); \
	ROUND4(AESENC, 6); \
	ROUND4(AESENC, 7); \
	ROUND4(AESENC, 8); \
	ROUND4(AESENC, 9); \
	ROUND4(AESENCLAST, 10)

#define ENC1 \
	MOVOU (DX), X8; \
	PXOR  X8, X0; \
	ROUND1(AESENC, 1); \
	ROUND1(AESENC, 2); \
	ROUND1(AESENC, 3); \
	ROUND1(AESENC, 4); \
	ROUND1(AESENC, 5); \
	ROUND1(AESENC, 6); \
	ROUND1(AESENC, 7); \
	ROUND1(AESENC, 8); \
	ROUND1(AESENC, 9); \
	ROUND1(AESENCLAST, 10)

// CTR leaves counter block hi ‖ lo+n in x: X15 holds hi, byte-swapped,
// in its low half, R9 holds lo. Clobbers AX, X14.
#define CTR(n, x) \
	LEAQ       n(R9), AX; \
	BSWAPQ     AX; \
	MOVQ       AX, X14; \
	MOVO       X15, x; \
	PUNPCKLQDQ X14, x

// func ctrBlocks(rk *[11][16]byte, hi, lo uint64, dst []byte)
//
// Counter mode: block n of dst, n < len(dst)/16, is AES(hi ‖ lo+n),
// both halves big-endian, lo wrapping modulo 2⁶⁴. Eight blocks are in
// flight at a time, then four, then one.
TEXT ·ctrBlocks(SB), NOSPLIT, $0-48
	MOVQ   rk+0(FP), DX
	MOVQ   hi+8(FP), AX
	MOVQ   lo+16(FP), R9
	MOVQ   dst_base+24(FP), DI
	MOVQ   dst_len+32(FP), CX
	SHRQ   $4, CX
	BSWAPQ AX
	MOVQ   AX, X15

ctr8:
	CMPQ CX, $8
	JB   ctr4
	CTR(0, X0)
	CTR(1, X1)
	CTR(2, X2)
	CTR(3, X3)
	CTR(4, X4)
	CTR(5, X5)
	CTR(6, X6)
	CTR(7, X7)
	ENC8
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	ADDQ  $8, R9
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   ctr8

ctr4:
	CMPQ CX, $4
	JB   ctr1
	CTR(0, X0)
	CTR(1, X1)
	CTR(2, X2)
	CTR(3, X3)
	ENC4
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ  $4, R9
	ADDQ  $64, DI
	SUBQ  $4, CX

ctr1:
	TESTQ CX, CX
	JZ    ctrdone
	CTR(0, X0)
	ENC1
	MOVOU X0, 0(DI)
	INCQ  R9
	ADDQ  $16, DI
	DECQ  CX
	JMP   ctr1

ctrdone:
	RET

// TWEAK folds j+n, R8 holding j, into the low eight bytes of x.
// Clobbers AX, X8.
#define TWEAK(n, x) \
	LEAQ n(R8), AX; \
	MOVQ AX, X8; \
	PXOR X8, x

// FEED stores x ⊕ the block at off(DI) to off(DI). Clobbers X8.
#define FEED(off, x) \
	MOVOU off(DI), X8; \
	PXOR  X8, x; \
	MOVOU x, off(DI)

// func tccr8(rk *[11][16]byte, x *[8]label.Label, j uint64, h *[8]label.Label)
//
// The row hash of eight rows: h[k] = π(π(x[k]) ⊕ (j+k)) ⊕ π(x[k]). The
// eight π(x) go through the rounds together and are parked in h; then
// the eight outer π, and the feed-forward from h. All of x is loaded
// before h is written, so the two may alias.
TEXT ·tccr8(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ j+16(FP), R8
	MOVQ h+24(FP), DI

	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU 64(SI), X4
	MOVOU 80(SI), X5
	MOVOU 96(SI), X6
	MOVOU 112(SI), X7
	ENC8
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)

	TWEAK(0, X0)
	TWEAK(1, X1)
	TWEAK(2, X2)
	TWEAK(3, X3)
	TWEAK(4, X4)
	TWEAK(5, X5)
	TWEAK(6, X6)
	TWEAK(7, X7)
	ENC8
	FEED(0, X0)
	FEED(16, X1)
	FEED(32, X2)
	FEED(48, X3)
	FEED(64, X4)
	FEED(80, X5)
	FEED(96, X6)
	FEED(112, X7)
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

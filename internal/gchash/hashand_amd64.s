//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// The AES-NI kernels: the half-gate hash of an AND gate (hashAND4,
// hashAND2), whole half-gate ANDs a bundle of one or two at a time
// (garbleBundle, evalBundle), counter-mode blocks under an expanded key
// (ctrBlocks), and the OT extension's row hash of eight rows (tccr8).
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

// The half-gate bundle kernels: one AND, or two that do not read each
// other's output, a call (halfgate.go has the arithmetic). The garbler
// builds K = 2·x ⊕ T for the FALSE labels only; a TRUE label's is
// K ⊕ 2·Δ, since doubling is linear. Its feed-forward then cancels in
// pairs: H(a⁰) ⊕ H(a¹) = π(K_a⁰) ⊕ π(K_a¹) ⊕ 2·Δ. A permute bit is
// applied as a mask, -(x & 1) broadcast to 128 bits. Every input label
// is loaded (a⁰ twice, the second time for T_E) before any output is
// stored, gate 0's outputs before gate 1's, so gate 1's output may
// overwrite a label gate 0 reads.

// MASK leaves -(lsb of the label at SI) in m.
#define MASK(m) \
	MOVQ 0(SI), m; \
	ANDQ $1, m; \
	NEGQ m

// BCAST broadcasts the mask in m to both halves of x.
#define BCAST(m, x) \
	MOVQ       m, x; \
	PUNPCKLQDQ x, x

// GKEYS loads the FALSE labels of the gate at r(DI): K_a⁰ in sa and
// ka, K_a¹ in sa1, K_b⁰ in sb and kb, K_b¹ in sb1, the permute masks in
// ma and mb. X12 holds 2·Δ. Clobbers AX, BX, CX, SI, R8, R9.
#define GKEYS(r, sa, sa1, sb, sb1, ka, kb, ma, mb) \
	MOVQ (r+HalfGate_Tweak)(DI), R8; \
	LEAQ 1(R8), R9; \
	MOVQ (r+HalfGate_A)(DI), SI; \
	KEY(0, R8, sa, ka); \
	MASK(ma); \
	MOVO sa, sa1; \
	PXOR X12, sa1; \
	MOVQ (r+HalfGate_B)(DI), SI; \
	KEY(0, R9, sb, kb); \
	MASK(mb); \
	MOVO sb, sb1; \
	PXOR X12, sb1

// GCOMBINE turns the four encrypted states of the gate at r(DI) into
// its outputs: out⁰ in s0, T_G in s1, T_E in s3. X12 holds 2·Δ, X14 Δ.
// Clobbers X13, X15, SI.
#define GCOMBINE(r, s0, s1, s2, s3, ka, kb, ma, mb) \
	PXOR  s0, s1; \
	PXOR  X12, s1; \
	PXOR  ka, s0; \
	PXOR  s2, s3; \
	PXOR  X12, s3; \
	PXOR  kb, s2; \
	BCAST(mb, X13); \
	MOVO  X14, X15; \
	PAND  X13, X15; \
	PXOR  X15, s1; \
	PAND  s3, X13; \
	PXOR  X13, s2; \
	BCAST(ma, X13); \
	PAND  s1, X13; \
	PXOR  X13, s0; \
	PXOR  s2, s0; \
	MOVQ  (r+HalfGate_A)(DI), SI; \
	MOVOU 0(SI), X13; \
	PXOR  X13, s3

// GSTORE stores the table (row count 2, T_G, T_E) and out⁰ of the gate
// at r(DI). Clobbers SI.
#define GSTORE(r, out, tg, te) \
	MOVQ  (r+HalfGate_Table)(DI), SI; \
	MOVB  $2, 0(SI); \
	MOVOU tg, 1(SI); \
	MOVOU te, 17(SI); \
	MOVQ  (r+HalfGate_Out)(DI), SI; \
	MOVOU out, 0(SI)

// RK8 / RK4 / RK2 run one AES round (AESENC, or AESENCLAST as op) with
// round key i of the schedule at DX, through the key register k, on
// X0..X7 / X0..X3 / X0..X1.
#define RK8(op, i, k) \
	MOVOU (16*i)(DX), k; \
	op    k, X0; \
	op    k, X1; \
	op    k, X2; \
	op    k, X3; \
	op    k, X4; \
	op    k, X5; \
	op    k, X6; \
	op    k, X7

#define RK4(op, i, k) \
	MOVOU (16*i)(DX), k; \
	op    k, X0; \
	op    k, X1; \
	op    k, X2; \
	op    k, X3

#define RK2(op, i, k) \
	MOVOU (16*i)(DX), k; \
	op    k, X0; \
	op    k, X1

// func garbleBundle(rk *[11][16]byte, delta *label.Label, gates *HalfGate, n int)
TEXT ·garbleBundle(SB), NOSPLIT, $0-32
	MOVQ  rk+0(FP), DX
	MOVQ  delta+8(FP), SI
	MOVQ  gates+16(FP), DI
	MOVOU 0(SI), X14
	XORQ  R8, R8
	KEY(0, R8, X12, X15)
	GKEYS(0, X0, X1, X2, X3, X8, X9, R10, R11)
	CMPQ  n+24(FP), $2
	JNE   garble1

	GKEYS(HalfGate__size, X4, X5, X6, X7, X10, X11, R12, R13)
	MOVOU (DX), X13
	PXOR  X13, X0
	PXOR  X13, X1
	PXOR  X13, X2
	PXOR  X13, X3
	PXOR  X13, X4
	PXOR  X13, X5
	PXOR  X13, X6
	PXOR  X13, X7
	RK8(AESENC, 1, X13)
	RK8(AESENC, 2, X13)
	RK8(AESENC, 3, X13)
	RK8(AESENC, 4, X13)
	RK8(AESENC, 5, X13)
	RK8(AESENC, 6, X13)
	RK8(AESENC, 7, X13)
	RK8(AESENC, 8, X13)
	RK8(AESENC, 9, X13)
	RK8(AESENCLAST, 10, X13)
	GCOMBINE(0, X0, X1, X2, X3, X8, X9, R10, R11)
	GCOMBINE(HalfGate__size, X4, X5, X6, X7, X10, X11, R12, R13)
	GSTORE(0, X0, X1, X3)
	GSTORE(HalfGate__size, X4, X5, X7)
	RET

garble1:
	MOVOU (DX), X13
	PXOR  X13, X0
	PXOR  X13, X1
	PXOR  X13, X2
	PXOR  X13, X3
	RK4(AESENC, 1, X13)
	RK4(AESENC, 2, X13)
	RK4(AESENC, 3, X13)
	RK4(AESENC, 4, X13)
	RK4(AESENC, 5, X13)
	RK4(AESENC, 6, X13)
	RK4(AESENC, 7, X13)
	RK4(AESENC, 8, X13)
	RK4(AESENC, 9, X13)
	RK4(AESENCLAST, 10, X13)
	GCOMBINE(0, X0, X1, X2, X3, X8, X9, R10, R11)
	GSTORE(0, X0, X1, X3)
	RET

// EKEYS loads the active labels of the gate at r(DI): K_a in sa and
// ka, K_b in sb and kb, the select masks in ma and mb. Clobbers AX, BX,
// CX, SI, R8, R9.
#define EKEYS(r, sa, sb, ka, kb, ma, mb) \
	MOVQ (r+HalfGate_Tweak)(DI), R8; \
	LEAQ 1(R8), R9; \
	MOVQ (r+HalfGate_A)(DI), SI; \
	KEY(0, R8, sa, ka); \
	MASK(ma); \
	MOVQ (r+HalfGate_B)(DI), SI; \
	KEY(0, R9, sb, kb); \
	MASK(mb)

// ECOMBINE turns the two encrypted states of the gate at r(DI) into its
// output label, in sa. Clobbers X9, X10, X11, SI.
#define ECOMBINE(r, sa, sb, ka, kb, ma, mb) \
	PXOR  ka, sa; \
	PXOR  kb, sb; \
	MOVQ  (r+HalfGate_Table)(DI), SI; \
	MOVOU 1(SI), X9; \
	BCAST(ma, X10); \
	PAND  X10, X9; \
	PXOR  X9, sa; \
	MOVOU 17(SI), X9; \
	MOVQ  (r+HalfGate_A)(DI), SI; \
	MOVOU 0(SI), X11; \
	PXOR  X11, X9; \
	BCAST(mb, X10); \
	PAND  X10, X9; \
	PXOR  X9, sb; \
	PXOR  sb, sa

// func evalBundle(rk *[11][16]byte, gates *HalfGate, n int)
TEXT ·evalBundle(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), DX
	MOVQ gates+8(FP), DI
	EKEYS(0, X0, X1, X4, X5, R10, R11)
	CMPQ n+16(FP), $2
	JNE  eval1

	EKEYS(HalfGate__size, X2, X3, X6, X7, R12, R13)
	MOVOU (DX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	PXOR  X8, X2
	PXOR  X8, X3
	RK4(AESENC, 1, X8)
	RK4(AESENC, 2, X8)
	RK4(AESENC, 3, X8)
	RK4(AESENC, 4, X8)
	RK4(AESENC, 5, X8)
	RK4(AESENC, 6, X8)
	RK4(AESENC, 7, X8)
	RK4(AESENC, 8, X8)
	RK4(AESENC, 9, X8)
	RK4(AESENCLAST, 10, X8)
	ECOMBINE(0, X0, X1, X4, X5, R10, R11)
	ECOMBINE(HalfGate__size, X2, X3, X6, X7, R12, R13)
	MOVQ  (0+HalfGate_Out)(DI), SI
	MOVOU X0, 0(SI)
	MOVQ  (HalfGate__size+HalfGate_Out)(DI), SI
	MOVOU X2, 0(SI)
	RET

eval1:
	MOVOU (DX), X8
	PXOR  X8, X0
	PXOR  X8, X1
	RK2(AESENC, 1, X8)
	RK2(AESENC, 2, X8)
	RK2(AESENC, 3, X8)
	RK2(AESENC, 4, X8)
	RK2(AESENC, 5, X8)
	RK2(AESENC, 6, X8)
	RK2(AESENC, 7, X8)
	RK2(AESENC, 8, X8)
	RK2(AESENC, 9, X8)
	RK2(AESENCLAST, 10, X8)
	ECOMBINE(0, X0, X1, X4, X5, R10, R11)
	MOVQ  (0+HalfGate_Out)(DI), SI
	MOVOU X0, 0(SI)
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

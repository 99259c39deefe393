//go:build !purego

#include "textflag.h"
#include "go_asm.h"

// The AES-NI kernels: the half-gate hash of two labels (hashAND2,
// HashInto's kernel), a round's whole lowered program in one walk
// (garbleProgram, evalProgram), counter-mode blocks under an expanded
// key (ctrBlocks), and the OT extension's row hash of eight rows
// (tccr8).
//
// The half-gate hash: for each label x, K = 2·x ⊕ T is built in
// general-purpose registers, the AES-128 states of all labels advance
// together round by round, and H = π(K) ⊕ K is stored into
// ANDBlocks.H. Only SSE2 and AES-NI are used; hasAESNI is the one
// feature probe.
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

// RK8 / RK4 / RK2 / RK1 run one AES round (AESENC, or AESENCLAST as
// op) with round key i of the schedule at DX, through the key register
// k, on X0..X7 / X0..X3 / X0..X1 / X0.
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

#define RK1(op, i, k) \
	MOVOU (16*i)(DX), k; \
	op    k, X0

// ENC8 / ENC4 / ENC2 / ENC1 encrypt X0..X7 / X0..X3 / X0..X1 / X0 in
// place with the schedule at DX, through the key register k.
#define ENC8(k) \
	MOVOU (DX), k; \
	PXOR  k, X0; \
	PXOR  k, X1; \
	PXOR  k, X2; \
	PXOR  k, X3; \
	PXOR  k, X4; \
	PXOR  k, X5; \
	PXOR  k, X6; \
	PXOR  k, X7; \
	RK8(AESENC, 1, k); \
	RK8(AESENC, 2, k); \
	RK8(AESENC, 3, k); \
	RK8(AESENC, 4, k); \
	RK8(AESENC, 5, k); \
	RK8(AESENC, 6, k); \
	RK8(AESENC, 7, k); \
	RK8(AESENC, 8, k); \
	RK8(AESENC, 9, k); \
	RK8(AESENCLAST, 10, k)

#define ENC4(k) \
	MOVOU (DX), k; \
	PXOR  k, X0; \
	PXOR  k, X1; \
	PXOR  k, X2; \
	PXOR  k, X3; \
	RK4(AESENC, 1, k); \
	RK4(AESENC, 2, k); \
	RK4(AESENC, 3, k); \
	RK4(AESENC, 4, k); \
	RK4(AESENC, 5, k); \
	RK4(AESENC, 6, k); \
	RK4(AESENC, 7, k); \
	RK4(AESENC, 8, k); \
	RK4(AESENC, 9, k); \
	RK4(AESENCLAST, 10, k)

#define ENC2(k) \
	MOVOU (DX), k; \
	PXOR  k, X0; \
	PXOR  k, X1; \
	RK2(AESENC, 1, k); \
	RK2(AESENC, 2, k); \
	RK2(AESENC, 3, k); \
	RK2(AESENC, 4, k); \
	RK2(AESENC, 5, k); \
	RK2(AESENC, 6, k); \
	RK2(AESENC, 7, k); \
	RK2(AESENC, 8, k); \
	RK2(AESENC, 9, k); \
	RK2(AESENCLAST, 10, k)

#define ENC1(k) \
	MOVOU (DX), k; \
	PXOR  k, X0; \
	RK1(AESENC, 1, k); \
	RK1(AESENC, 2, k); \
	RK1(AESENC, 3, k); \
	RK1(AESENC, 4, k); \
	RK1(AESENC, 5, k); \
	RK1(AESENC, 6, k); \
	RK1(AESENC, 7, k); \
	RK1(AESENC, 8, k); \
	RK1(AESENC, 9, k); \
	RK1(AESENCLAST, 10, k)

// func hashAND2(rk *[11][16]byte, s *ANDBlocks, tweak uint64)
TEXT ·hashAND2(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), DX
	MOVQ s+8(FP), SI
	MOVQ tweak+16(FP), R8
	LEAQ 1(R8), R9

	KEY(ANDBlocks_X+0, R8, X0, X4)
	KEY(ANDBlocks_X+16, R9, X1, X5)

	ENC2(X8)

	PXOR  X4, X0
	PXOR  X5, X1
	MOVOU X0, ANDBlocks_H+0(SI)
	MOVOU X1, ANDBlocks_H+16(SI)
	RET

// The program walks: one call runs a round's whole lowered program
// (circuit.Program; halfgate.go has the half-gate arithmetic). DI walks
// the instruction records up to R15, R14 is the slot array, DX the
// round keys; the table block and the tweak base are read from the
// argument frame. An XOR is two loads, a PXOR and a store. An AND with
// TAG_PAIR set is a bundle with the instruction after it: both gates'
// AES states run together. The garbler builds K = 2·x ⊕ T for the FALSE
// labels only; a TRUE label's is K ⊕ 2·Δ, since doubling is linear. Its
// feed-forward then cancels in pairs: H(a⁰) ⊕ H(a¹) =
// π(K_a⁰) ⊕ π(K_a¹) ⊕ 2·Δ. A permute bit is applied as a mask,
// -(x & 1) broadcast to 128 bits. Every input label of a bundle is
// loaded (a⁰ twice, the second time for T_E) before any output is
// stored, gate 0's outputs before gate 1's, so gate 1's output may
// overwrite a label gate 0 reads. No bound is checked here: the Go
// entry holds the program to Program.Check and the arrays to its
// sizes.

// The circuit.Instr record: slots A, B, Out and the tag, little-endian
// uint32s, 16 bytes. hashand_amd64.go pins the layout at compile time.
#define INSTR_A 0
#define INSTR_B 4
#define INSTR_OUT 8
#define INSTR_TAG 12
#define TAG_PAIR 30
#define TAG_INDEX 0x3fffffff

// SLOT leaves in reg the address of the slot the uint32 at f(DI) names.
#define SLOT(f, reg) \
	MOVL f(DI), reg; \
	SHLQ $4, reg; \
	ADDQ R14, reg

// TABLE leaves in reg the address of the table of the AND at r(DI),
// tb being the table block's base.
#define TABLE(r, tb, reg) \
	MOVL   (r+INSTR_TAG)(DI), reg; \
	ANDL   $TAG_INDEX, reg; \
	SHLQ   $5, reg; \
	ADDQ   tb, reg

// TWEAKS leaves the AND at r(DI)'s tweaks, tw + 2·index and one more,
// in R8 and R9.
#define TWEAKS(r, tw) \
	MOVL (r+INSTR_TAG)(DI), R8; \
	ANDL $TAG_INDEX, R8; \
	SHLQ $1, R8; \
	ADDQ tw, R8; \
	LEAQ 1(R8), R9

// XORSTEP runs the XOR at DI. Clobbers BX, CX, SI, X0, X1.
#define XORSTEP \
	SLOT(INSTR_A, SI); \
	SLOT(INSTR_B, BX); \
	SLOT(INSTR_OUT, CX); \
	MOVOU 0(SI), X0; \
	MOVOU 0(BX), X1; \
	PXOR  X1, X0; \
	MOVOU X0, 0(CX)

// MASK leaves -(lsb of the label at SI) in m.
#define MASK(m) \
	MOVQ 0(SI), m; \
	ANDQ $1, m; \
	NEGQ m

// BCAST broadcasts the mask in m to both halves of x.
#define BCAST(m, x) \
	MOVQ       m, x; \
	PUNPCKLQDQ x, x

// GKEYS loads the FALSE labels of the AND at r(DI): K_a⁰ in sa and
// ka, K_a¹ in sa1, K_b⁰ in sb and kb, K_b¹ in sb1, the permute masks in
// ma and mb. X12 holds 2·Δ. Clobbers AX, BX, CX, SI, R8, R9.
#define GKEYS(r, tw, sa, sa1, sb, sb1, ka, kb, ma, mb) \
	TWEAKS(r, tw); \
	SLOT(r+INSTR_A, SI); \
	KEY(0, R8, sa, ka); \
	MASK(ma); \
	MOVO sa, sa1; \
	PXOR X12, sa1; \
	SLOT(r+INSTR_B, SI); \
	KEY(0, R9, sb, kb); \
	MASK(mb); \
	MOVO sb, sb1; \
	PXOR X12, sb1

// GCOMBINE turns the four encrypted states of the AND at r(DI) into
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
	SLOT(r+INSTR_A, SI); \
	MOVOU 0(SI), X13; \
	PXOR  X13, s3

// GSTORE stores the table (T_G, T_E) and out⁰ of the AND at r(DI).
// Clobbers SI.
#define GSTORE(r, tb, out, tg, te) \
	TABLE(r, tb, SI); \
	MOVOU tg, 0(SI); \
	MOVOU te, 16(SI); \
	SLOT(r+INSTR_OUT, SI); \
	MOVOU out, 0(SI)

// func garbleProgram(rk *[11][16]byte, delta *label.Label, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)
TEXT ·garbleProgram(SB), NOSPLIT, $0-96
	MOVQ  rk+0(FP), DX
	MOVQ  delta+8(FP), SI
	MOVQ  instrs_base+16(FP), DI
	MOVQ  instrs_len+24(FP), R15
	SHLQ  $4, R15
	ADDQ  DI, R15
	MOVQ  slots_base+40(FP), R14
	MOVOU 0(SI), X14
	XORQ  R8, R8
	KEY(0, R8, X12, X15)
	JMP   gnext

gxor:
	XORSTEP
	ADDQ $16, DI

gnext:
	CMPQ  DI, R15
	JAE   gdone
	MOVL  INSTR_TAG(DI), AX
	TESTL AX, AX
	JNS   gxor
	BTL   $TAG_PAIR, AX
	JCS   gpair

	GKEYS(0, tweak+88(FP), X0, X1, X2, X3, X8, X9, R10, R11)
	ENC4(X13)
	GCOMBINE(0, X0, X1, X2, X3, X8, X9, R10, R11)
	GSTORE(0, tables_base+64(FP), X0, X1, X3)
	ADDQ $16, DI
	JMP  gnext

gpair:
	GKEYS(0, tweak+88(FP), X0, X1, X2, X3, X8, X9, R10, R11)
	GKEYS(16, tweak+88(FP), X4, X5, X6, X7, X10, X11, R12, R13)
	ENC8(X13)
	GCOMBINE(0, X0, X1, X2, X3, X8, X9, R10, R11)
	GCOMBINE(16, X4, X5, X6, X7, X10, X11, R12, R13)
	GSTORE(0, tables_base+64(FP), X0, X1, X3)
	GSTORE(16, tables_base+64(FP), X4, X5, X7)
	ADDQ $32, DI
	JMP  gnext

gdone:
	RET

// EKEYS loads the active labels of the AND at r(DI): K_a in sa and ka,
// K_b in sb and kb, the select masks in ma and mb. Clobbers AX, BX, CX,
// SI, R8, R9.
#define EKEYS(r, tw, sa, sb, ka, kb, ma, mb) \
	TWEAKS(r, tw); \
	SLOT(r+INSTR_A, SI); \
	KEY(0, R8, sa, ka); \
	MASK(ma); \
	SLOT(r+INSTR_B, SI); \
	KEY(0, R9, sb, kb); \
	MASK(mb)

// ECOMBINE turns the two encrypted states of the AND at r(DI) into its
// output label, in sa. Clobbers X9, X10, X11, SI.
#define ECOMBINE(r, tb, sa, sb, ka, kb, ma, mb) \
	PXOR  ka, sa; \
	PXOR  kb, sb; \
	TABLE(r, tb, SI); \
	MOVOU 0(SI), X9; \
	BCAST(ma, X10); \
	PAND  X10, X9; \
	PXOR  X9, sa; \
	MOVOU 16(SI), X9; \
	SLOT(r+INSTR_A, SI); \
	MOVOU 0(SI), X11; \
	PXOR  X11, X9; \
	BCAST(mb, X10); \
	PAND  X10, X9; \
	PXOR  X9, sb; \
	PXOR  sb, sa

// ESTORE stores the output label in out of the AND at r(DI). Clobbers
// SI.
#define ESTORE(r, out) \
	SLOT(r+INSTR_OUT, SI); \
	MOVOU out, 0(SI)

// func evalProgram(rk *[11][16]byte, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)
TEXT ·evalProgram(SB), NOSPLIT, $0-88
	MOVQ rk+0(FP), DX
	MOVQ instrs_base+8(FP), DI
	MOVQ instrs_len+16(FP), R15
	SHLQ $4, R15
	ADDQ DI, R15
	MOVQ slots_base+32(FP), R14
	JMP  enext

exor:
	XORSTEP
	ADDQ $16, DI

enext:
	CMPQ  DI, R15
	JAE   edone
	MOVL  INSTR_TAG(DI), AX
	TESTL AX, AX
	JNS   exor
	BTL   $TAG_PAIR, AX
	JCS   epair

	EKEYS(0, tweak+80(FP), X0, X1, X4, X5, R10, R11)
	ENC2(X8)
	ECOMBINE(0, tables_base+56(FP), X0, X1, X4, X5, R10, R11)
	ESTORE(0, X0)
	ADDQ $16, DI
	JMP  enext

epair:
	EKEYS(0, tweak+80(FP), X0, X1, X4, X5, R10, R11)
	EKEYS(16, tweak+80(FP), X2, X3, X6, X7, R12, R13)
	ENC4(X8)
	ECOMBINE(0, tables_base+56(FP), X0, X1, X4, X5, R10, R11)
	ECOMBINE(16, tables_base+56(FP), X2, X3, X6, X7, R12, R13)
	ESTORE(0, X0)
	ESTORE(16, X2)
	ADDQ $32, DI
	JMP  enext

edone:
	RET

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
	ENC8(X8)
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
	ENC4(X8)
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
	ENC1(X8)
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
	ENC8(X8)
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
	ENC8(X8)
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

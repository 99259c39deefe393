//go:build !purego

#include "textflag.h"
#include "walk_amd64.h"

// The VAES walks: garbleProgram and evalProgram (hashand_amd64.s) with
// four AES blocks to a zmm register. A bundle's four input labels load
// as one register, lanes [a, b, a′, b′] (′ is the bundle's second
// gate); a single AND runs the same body with itself as the partner and
// stores gate 0 only. The labels are doubled and the tweaks folded in
// four at a time; the garbler encrypts the FALSE keys and the TRUE keys
// (FALSE ⊕ 2·Δ, doubling being linear) as two registers, the evaluator
// its active keys as one. The half-gate combine then runs lane by lane:
// a lane's permute bit broadcast to a mask, the a↔b lane swap, and
// merge-masked XORs on the a lanes (K1) or the b lanes (K2). Each gate's
// (T_G, T_E) leaves as one ymm, its output label as one xmm. As in the
// SSE walk, every input of a bundle is loaded before any output is
// stored, gate 0's outputs before gate 1's.
//
// Registers held for the whole walk, all in Z16–Z31, which no VEX
// instruction reaches: the byte reversal (Z16), the doubling's carries
// (Z17), the tweak increments (Z18), 2·Δ and Δ broadcast (Z19, Z20,
// garbler only) and the 11 round keys (Z21–Z31). The XOR step uses VEX
// encodings, so no legacy SSE instruction runs while the upper state is
// dirty, and each walk ends in VZEROUPPER.
//
// Besides the walks, cpuidBits reads the bits vaesWalkUsable decides
// on.

// vrev reverses a lane's 16 bytes (VPSHUFB), turning the label's
// big-endian 128-bit value into a little-endian one: low word first.
DATA vrev<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA vrev<>+8(SB)/8, $0x0001020304050607
GLOBL vrev<>(SB), RODATA|NOPTR, $16

// vcarry is what the doubling adds to each word of a reversed lane when
// the other word's top bit is set: 0x87 to the low word (the reduction),
// 1 to the high word (the carry).
DATA vcarry<>+0(SB)/8, $0x87
DATA vcarry<>+8(SB)/8, $1
GLOBL vcarry<>(SB), RODATA|NOPTR, $16

// vtweak adds 1 to the b lanes' tweaks: T+1 beside T.
DATA vtweak<>+0(SB)/8, $0
DATA vtweak<>+8(SB)/8, $0
DATA vtweak<>+16(SB)/8, $1
DATA vtweak<>+24(SB)/8, $0
DATA vtweak<>+32(SB)/8, $0
DATA vtweak<>+40(SB)/8, $0
DATA vtweak<>+48(SB)/8, $1
DATA vtweak<>+56(SB)/8, $0
GLOBL vtweak<>(SB), RODATA|NOPTR, $64

// VSETUP loads the constants and the round keys at DX, and the masks:
// K1 the a lanes' words, K2 the b lanes', K3 gate 0's tweak words, K4
// gate 1's. Clobbers AX.
#define VSETUP \
	VBROADCASTI32X4 vrev<>(SB), Z16; \
	VBROADCASTI32X4 vcarry<>(SB), Z17; \
	VMOVDQU64       vtweak<>(SB), Z18; \
	VBROADCASTI32X4 0(DX), Z21; \
	VBROADCASTI32X4 16(DX), Z22; \
	VBROADCASTI32X4 32(DX), Z23; \
	VBROADCASTI32X4 48(DX), Z24; \
	VBROADCASTI32X4 64(DX), Z25; \
	VBROADCASTI32X4 80(DX), Z26; \
	VBROADCASTI32X4 96(DX), Z27; \
	VBROADCASTI32X4 112(DX), Z28; \
	VBROADCASTI32X4 128(DX), Z29; \
	VBROADCASTI32X4 144(DX), Z30; \
	VBROADCASTI32X4 160(DX), Z31; \
	MOVL            $0x33, AX; \
	KMOVW           AX, K1; \
	MOVL            $0xcc, AX; \
	KMOVW           AX, K2; \
	MOVL            $0x05, AX; \
	KMOVW           AX, K3; \
	MOVL            $0x50, AX; \
	KMOVW           AX, K4

// DOUBLE leaves 2·x, lane by lane, in d: byte-reverse, shift each word
// left, add the carries that cross words and the reduction through one
// VPTERNLOGQ (d ⊕ (c ∧ Z17)), reverse back. Clobbers c.
#define DOUBLE(x, d, c) \
	VPSHUFB    Z16, x, d; \
	VPSRAQ     $63, d, c; \
	VPSHUFD    $0x4e, c, c; \
	VPADDQ     d, d, d; \
	VPTERNLOGQ $0x78, Z17, c, d; \
	VPSHUFB    Z16, d, d

// VKEYS leaves in Z1 the keys K = 2·x ⊕ T of the labels of the AND at
// DI and its partner at r(DI), lanes [a, b, a′, b′], and the labels in
// Z0; R12 is the tweak base. Clobbers AX, BX, CX, SI, R8, R9, Z2, Z5.
#define VKEYS(r) \
	MOVL            INSTR_TAG(DI), R8; \
	ANDL            $TAG_INDEX, R8; \
	SHLQ            $1, R8; \
	ADDQ            R12, R8; \
	MOVL            (r+INSTR_TAG)(DI), R9; \
	ANDL            $TAG_INDEX, R9; \
	SHLQ            $1, R9; \
	ADDQ            R12, R9; \
	VPBROADCASTQ.Z  R8, K3, Z5; \
	VPBROADCASTQ    R9, K4, Z5; \
	VPADDQ          Z18, Z5, Z5; \
	SLOT(INSTR_A, SI); \
	SLOT(INSTR_B, BX); \
	SLOT(r+INSTR_A, CX); \
	SLOT(r+INSTR_B, AX); \
	VMOVDQU         0(SI), X0; \
	VINSERTI32X4    $1, 0(BX), Z0, Z0; \
	VINSERTI32X4    $2, 0(CX), Z0, Z0; \
	VINSERTI32X4    $3, 0(AX), Z0, Z0; \
	DOUBLE(Z0, Z1, Z2); \
	VPXORQ          Z5, Z1, Z1

// MASKS leaves in Z6 each lane of Z0's permute bit broadcast to the
// lane, and in Z8 the labels with a and b lanes swapped.
#define MASKS \
	VPSHUFD    $0x44, Z0, Z6; \
	VPSLLQ     $63, Z6, Z6; \
	VPSRAQ     $63, Z6, Z6; \
	VSHUFI64X2 $0xb1, Z0, Z0, Z8

// VENC2 / VENC1 encrypt Z3 and Z4 / Z3 in place.
#define VENC2 \
	VPXORQ Z21, Z3, Z3; \
	VPXORQ Z21, Z4, Z4; \
	VAESENC Z22, Z3, Z3; \
	VAESENC Z22, Z4, Z4; \
	VAESENC Z23, Z3, Z3; \
	VAESENC Z23, Z4, Z4; \
	VAESENC Z24, Z3, Z3; \
	VAESENC Z24, Z4, Z4; \
	VAESENC Z25, Z3, Z3; \
	VAESENC Z25, Z4, Z4; \
	VAESENC Z26, Z3, Z3; \
	VAESENC Z26, Z4, Z4; \
	VAESENC Z27, Z3, Z3; \
	VAESENC Z27, Z4, Z4; \
	VAESENC Z28, Z3, Z3; \
	VAESENC Z28, Z4, Z4; \
	VAESENC Z29, Z3, Z3; \
	VAESENC Z29, Z4, Z4; \
	VAESENC Z30, Z3, Z3; \
	VAESENC Z30, Z4, Z4; \
	VAESENCLAST Z31, Z3, Z3; \
	VAESENCLAST Z31, Z4, Z4

#define VENC1 \
	VPXORQ Z21, Z3, Z3; \
	VAESENC Z22, Z3, Z3; \
	VAESENC Z23, Z3, Z3; \
	VAESENC Z24, Z3, Z3; \
	VAESENC Z25, Z3, Z3; \
	VAESENC Z26, Z3, Z3; \
	VAESENC Z27, Z3, Z3; \
	VAESENC Z28, Z3, Z3; \
	VAESENC Z29, Z3, Z3; \
	VAESENC Z30, Z3, Z3; \
	VAESENCLAST Z31, Z3, Z3

// VXORSTEP runs the XOR at DI in VEX encodings. Clobbers BX, CX, SI,
// X0.
#define VXORSTEP \
	SLOT(INSTR_A, SI); \
	SLOT(INSTR_B, BX); \
	SLOT(INSTR_OUT, CX); \
	VMOVDQU 0(SI), X0; \
	VPXOR   0(BX), X0, X0; \
	VMOVDQU X0, 0(CX)

// VGARBLE garbles the AND at DI and its partner at r(DI): the tables
// (T_G, T_E) in Z3's lanes [T_G, T_E, T_G′, T_E′], the FALSE outputs
// in Z9's lanes 0 and 2. With E⁰ = π(K⁰), E¹ = π(K⁰ ⊕ 2·Δ) and
// D = E⁰ ⊕ E¹ ⊕ 2·Δ = H(x⁰) ⊕ H(x¹): T_G = D_a ⊕ p_b·Δ,
// T_E = D_b ⊕ a⁰, and out⁰ = H(a⁰) ⊕ H(b⁰) ⊕ p_a·T_G ⊕ p_b·D_b,
// the last two terms one masked AND across all lanes before the b lanes
// take a⁰.
#define VGARBLE(r) \
	VKEYS(r); \
	VMOVDQA64  Z1, Z3; \
	VPXORQ     Z19, Z1, Z4; \
	VENC2; \
	MASKS; \
	VSHUFI64X2 $0xb1, Z6, Z6, Z7; \
	VPXORQ     Z1, Z3, Z9; \
	VPTERNLOGQ $0x96, Z19, Z4, Z3; \
	VPTERNLOGQ $0x78, Z20, Z7, K1, Z3; \
	VPTERNLOGQ $0x78, Z3, Z6, Z9; \
	VPXORQ     Z8, Z3, K2, Z3; \
	VSHUFI64X2 $0xb1, Z9, Z9, Z10; \
	VPXORQ     Z10, Z9, Z9

// VGSTORE0 stores gate 0's table and output, VGSTORE1 gate 1's, the
// partner at r(DI). Clobber SI.
#define VGSTORE0 \
	TABLE(0, R13, SI); \
	VMOVDQU Y3, 0(SI); \
	SLOT(INSTR_OUT, SI); \
	VMOVDQU X9, 0(SI)

#define VGSTORE1(r) \
	TABLE(r, R13, SI); \
	VEXTRACTI64X4 $1, Z3, 0(SI); \
	SLOT(r+INSTR_OUT, SI); \
	VEXTRACTI32X4 $2, Z9, 0(SI)

// func garbleProgramVAES(rk *[11][16]byte, delta *label.Label, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)
TEXT ·garbleProgramVAES(SB), NOSPLIT, $0-96
	MOVQ            rk+0(FP), DX
	MOVQ            delta+8(FP), SI
	MOVQ            instrs_base+16(FP), DI
	MOVQ            instrs_len+24(FP), R15
	SHLQ            $4, R15
	ADDQ            DI, R15
	MOVQ            slots_base+40(FP), R14
	MOVQ            tables_base+64(FP), R13
	MOVQ            tweak+88(FP), R12
	VSETUP
	VBROADCASTI32X4 0(SI), Z20
	DOUBLE(Z20, Z19, Z2)
	JMP             vgnext

vgxor:
	VXORSTEP
	ADDQ $16, DI

vgnext:
	CMPQ  DI, R15
	JAE   vgdone
	MOVL  INSTR_TAG(DI), AX
	TESTL AX, AX
	JNS   vgxor
	BTL   $TAG_PAIR, AX
	JCS   vgpair

	VGARBLE(0)
	VGSTORE0
	ADDQ $16, DI
	JMP  vgnext

vgpair:
	VGARBLE(16)
	VGSTORE0
	VGSTORE1(16)
	ADDQ $32, DI
	JMP  vgnext

vgdone:
	VZEROUPPER
	RET

// VEVAL evaluates the AND at DI and its partner at r(DI), the outputs
// in Z3's lanes 0 and 2: H = π(K) ⊕ K, and
// out = H(a) ⊕ H(b) ⊕ lsb(a)·T_G ⊕ lsb(b)·(T_E ⊕ a), the table
// words masked lane by lane once the b lanes take a.
#define VEVAL(r) \
	VKEYS(r); \
	VMOVDQA64     Z1, Z3; \
	VENC1; \
	VPXORQ        Z1, Z3, Z3; \
	TABLE(0, R13, SI); \
	VMOVDQU       0(SI), Y4; \
	TABLE(r, R13, SI); \
	VINSERTI64X4  $1, 0(SI), Z4, Z4; \
	MASKS; \
	VPXORQ        Z8, Z4, K2, Z4; \
	VPTERNLOGQ    $0x78, Z4, Z6, Z3; \
	VSHUFI64X2    $0xb1, Z3, Z3, Z9; \
	VPXORQ        Z9, Z3, Z3

// func evalProgramVAES(rk *[11][16]byte, instrs []circuit.Instr, slots []label.Label, tables []byte, tweak uint64)
TEXT ·evalProgramVAES(SB), NOSPLIT, $0-88
	MOVQ rk+0(FP), DX
	MOVQ instrs_base+8(FP), DI
	MOVQ instrs_len+16(FP), R15
	SHLQ $4, R15
	ADDQ DI, R15
	MOVQ slots_base+32(FP), R14
	MOVQ tables_base+56(FP), R13
	MOVQ tweak+80(FP), R12
	VSETUP
	JMP  venext

vexor:
	VXORSTEP
	ADDQ $16, DI

venext:
	CMPQ  DI, R15
	JAE   vedone
	MOVL  INSTR_TAG(DI), AX
	TESTL AX, AX
	JNS   vexor
	BTL   $TAG_PAIR, AX
	JCS   vepair

	VEVAL(0)
	SLOT(INSTR_OUT, SI)
	VMOVDQU X3, 0(SI)
	ADDQ    $16, DI
	JMP     venext

vepair:
	VEVAL(16)
	SLOT(INSTR_OUT, SI)
	VMOVDQU       X3, 0(SI)
	SLOT(16+INSTR_OUT, SI)
	VEXTRACTI32X4 $2, Z3, 0(SI)
	ADDQ          $32, DI
	JMP           venext

vedone:
	VZEROUPPER
	RET

// func cpuidBits() (ebx7, ecx7, xcr0 uint32)
//
// Leaf 7 is read only when CPUID's highest leaf reaches it, and XCR0
// only when leaf 1 says the OS enabled XGETBV (OSXSAVE, ECX bit 27);
// what is not read is returned as zero.
TEXT ·cpuidBits(SB), NOSPLIT, $0-12
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	MOVL  AX, R8
	XORL  BX, BX
	XORL  CX, CX
	CMPL  R8, $7
	JB    noleaf7
	MOVL  $7, AX
	CPUID

noleaf7:
	MOVL  BX, ebx7+0(FP)
	MOVL  CX, ecx7+4(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	XORL  AX, AX
	BTL   $27, CX
	JCC   noxcr0
	XORL  CX, CX
	XGETBV

noxcr0:
	MOVL AX, xcr0+8(FP)
	RET

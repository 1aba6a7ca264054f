// AVX-512 IFMA row kernels. Each function mirrors one Go loop (named in
// its header comment) eight lanes at a time and produces the same output
// row bit for bit; DESIGN.md §11 "Vector kernels" carries the range
// arguments. Preconditions, enforced by the Go wrappers in vec_amd64.go:
// 4q < 2^52, every row length a positive multiple of 8 (NTT: N ≥ 32), and
// for the two lifting kernels a source modulus below 2^52.

#include "textflag.h"

// Permutation tables for the in-register NTT stages. A 16-element chunk is
// held as (L, H); the VPERMT2Q indices address L as 0..7 and H as 8..15.
// Layouts: nat = natural order, S4/S2/S1 = lo|hi halves of the span-4/2/1
// butterflies. Every transition's inverse uses the same index pair, except
// nat→S1 / S1→nat.
DATA permTab<>+0x000(SB)/8, $0 // A lo: nat↔S4
DATA permTab<>+0x008(SB)/8, $1
DATA permTab<>+0x010(SB)/8, $2
DATA permTab<>+0x018(SB)/8, $3
DATA permTab<>+0x020(SB)/8, $8
DATA permTab<>+0x028(SB)/8, $9
DATA permTab<>+0x030(SB)/8, $10
DATA permTab<>+0x038(SB)/8, $11
DATA permTab<>+0x040(SB)/8, $4 // A hi
DATA permTab<>+0x048(SB)/8, $5
DATA permTab<>+0x050(SB)/8, $6
DATA permTab<>+0x058(SB)/8, $7
DATA permTab<>+0x060(SB)/8, $12
DATA permTab<>+0x068(SB)/8, $13
DATA permTab<>+0x070(SB)/8, $14
DATA permTab<>+0x078(SB)/8, $15
DATA permTab<>+0x080(SB)/8, $0 // B lo: S4↔S2
DATA permTab<>+0x088(SB)/8, $1
DATA permTab<>+0x090(SB)/8, $8
DATA permTab<>+0x098(SB)/8, $9
DATA permTab<>+0x0a0(SB)/8, $4
DATA permTab<>+0x0a8(SB)/8, $5
DATA permTab<>+0x0b0(SB)/8, $12
DATA permTab<>+0x0b8(SB)/8, $13
DATA permTab<>+0x0c0(SB)/8, $2 // B hi
DATA permTab<>+0x0c8(SB)/8, $3
DATA permTab<>+0x0d0(SB)/8, $10
DATA permTab<>+0x0d8(SB)/8, $11
DATA permTab<>+0x0e0(SB)/8, $6
DATA permTab<>+0x0e8(SB)/8, $7
DATA permTab<>+0x0f0(SB)/8, $14
DATA permTab<>+0x0f8(SB)/8, $15
DATA permTab<>+0x100(SB)/8, $0 // C lo: S2↔S1
DATA permTab<>+0x108(SB)/8, $8
DATA permTab<>+0x110(SB)/8, $2
DATA permTab<>+0x118(SB)/8, $10
DATA permTab<>+0x120(SB)/8, $4
DATA permTab<>+0x128(SB)/8, $12
DATA permTab<>+0x130(SB)/8, $6
DATA permTab<>+0x138(SB)/8, $14
DATA permTab<>+0x140(SB)/8, $1 // C hi
DATA permTab<>+0x148(SB)/8, $9
DATA permTab<>+0x150(SB)/8, $3
DATA permTab<>+0x158(SB)/8, $11
DATA permTab<>+0x160(SB)/8, $5
DATA permTab<>+0x168(SB)/8, $13
DATA permTab<>+0x170(SB)/8, $7
DATA permTab<>+0x178(SB)/8, $15
DATA permTab<>+0x180(SB)/8, $0 // D lo: S1→nat
DATA permTab<>+0x188(SB)/8, $8
DATA permTab<>+0x190(SB)/8, $1
DATA permTab<>+0x198(SB)/8, $9
DATA permTab<>+0x1a0(SB)/8, $2
DATA permTab<>+0x1a8(SB)/8, $10
DATA permTab<>+0x1b0(SB)/8, $3
DATA permTab<>+0x1b8(SB)/8, $11
DATA permTab<>+0x1c0(SB)/8, $4 // D hi
DATA permTab<>+0x1c8(SB)/8, $12
DATA permTab<>+0x1d0(SB)/8, $5
DATA permTab<>+0x1d8(SB)/8, $13
DATA permTab<>+0x1e0(SB)/8, $6
DATA permTab<>+0x1e8(SB)/8, $14
DATA permTab<>+0x1f0(SB)/8, $7
DATA permTab<>+0x1f8(SB)/8, $15
DATA permTab<>+0x200(SB)/8, $0 // E lo: nat→S1 (evens)
DATA permTab<>+0x208(SB)/8, $2
DATA permTab<>+0x210(SB)/8, $4
DATA permTab<>+0x218(SB)/8, $6
DATA permTab<>+0x220(SB)/8, $8
DATA permTab<>+0x228(SB)/8, $10
DATA permTab<>+0x230(SB)/8, $12
DATA permTab<>+0x238(SB)/8, $14
DATA permTab<>+0x240(SB)/8, $1 // E hi (odds)
DATA permTab<>+0x248(SB)/8, $3
DATA permTab<>+0x250(SB)/8, $5
DATA permTab<>+0x258(SB)/8, $7
DATA permTab<>+0x260(SB)/8, $9
DATA permTab<>+0x268(SB)/8, $11
DATA permTab<>+0x270(SB)/8, $13
DATA permTab<>+0x278(SB)/8, $15
DATA permTab<>+0x280(SB)/8, $0 // T4: two twiddles, four lanes each
DATA permTab<>+0x288(SB)/8, $0
DATA permTab<>+0x290(SB)/8, $0
DATA permTab<>+0x298(SB)/8, $0
DATA permTab<>+0x2a0(SB)/8, $1
DATA permTab<>+0x2a8(SB)/8, $1
DATA permTab<>+0x2b0(SB)/8, $1
DATA permTab<>+0x2b8(SB)/8, $1
DATA permTab<>+0x2c0(SB)/8, $0 // T2: four twiddles, two lanes each
DATA permTab<>+0x2c8(SB)/8, $0
DATA permTab<>+0x2d0(SB)/8, $1
DATA permTab<>+0x2d8(SB)/8, $1
DATA permTab<>+0x2e0(SB)/8, $2
DATA permTab<>+0x2e8(SB)/8, $2
DATA permTab<>+0x2f0(SB)/8, $3
DATA permTab<>+0x2f8(SB)/8, $3
GLOBL permTab<>(SB), RODATA|NOPTR, $0x300

#define PERM_A_LO 0x000
#define PERM_A_HI 0x040
#define PERM_B_LO 0x080
#define PERM_B_HI 0x0c0
#define PERM_C_LO 0x100
#define PERM_C_HI 0x140
#define PERM_D_LO 0x180
#define PERM_D_HI 0x1c0
#define PERM_E_LO 0x200
#define PERM_E_HI 0x240
#define PERM_T4 0x280
#define PERM_T2 0x2c0

// Constant registers, set up by CONSTS from the GPR holding q (clobbers AX):
// Z31 = q, Z30 = 2q, Z29 = 2^52-1, Z28 = 2^52-q.
#define CONSTS(qreg) \
	VPBROADCASTQ qreg, Z31; \
	VPADDQ Z31, Z31, Z30; \
	MOVQ $0x000fffffffffffff, AX; \
	VPBROADCASTQ AX, Z29; \
	INCQ AX; \
	SUBQ qreg, AX; \
	VPBROADCASTQ AX, Z28

// SHOUP52: out = x·w - ⌊x·wp/2^52⌋·q mod 2^52, in [0, 2q) for any x < 2^52
// when wp = ⌊w·2^52/q⌋. The subtraction rides the second multiply-add as
// an addition of ⌊…⌋·(2^52-q). t is scratch; out and t must differ from
// x, w, wp.
#define SHOUP52(x, w, wp, out, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ wp, x, t; \
	VPXORQ out, out, out; \
	VPMADD52LUQ w, x, out; \
	VPMADD52LUQ Z28, t, out; \
	VPANDQ Z29, out, out

// CSUB: r = umin(r, r-m): one conditional subtraction of m (the wrapped
// difference is huge exactly when r < m).
#define CSUB(r, m, t) \
	VPSUBQ m, r, t; \
	VPMINUQ t, r, r

// CTBFLY: the lazy Cooley-Tukey butterfly of ntt.ForwardLazy on (lo, hi)
// in place: u = lo mod⁺ 2q, v = SHOUP52(hi, w), lo' = u+v, hi' = u+2q-v.
#define CTBFLY(lo, hi, w, wp, t1, t2) \
	CSUB(lo, Z30, t1); \
	SHOUP52(hi, w, wp, t2, t1); \
	VPADDQ Z30, lo, hi; \
	VPSUBQ t2, hi, hi; \
	VPADDQ t2, lo, lo

// GSBFLY: the lazy Gentleman-Sande butterfly of ntt.InverseLazy on (lo, hi)
// in place: lo' = (lo+hi) mod⁺ 2q, hi' = SHOUP52(lo+2q-hi, w).
#define GSBFLY(lo, hi, w, wp, t1, t2, t3) \
	VPADDQ Z30, lo, t3; \
	VPSUBQ hi, t3, t3; \
	VPADDQ hi, lo, lo; \
	CSUB(lo, Z30, t1); \
	SHOUP52(t3, w, wp, hi, t1)

// REPERM: (l, h) = (perm(l|h, ilo), perm(l|h, ihi)); t is scratch.
#define REPERM(l, h, ilo, ihi, t) \
	VMOVDQA64 l, t; \
	VPERMT2Q h, ilo, l; \
	VPERMT2Q h, ihi, t; \
	VMOVDQA64 t, h

// func forwardNTT(a *uint64, n int, w, wp *uint64, q uint64)
//
// Mirrors ntt.(*Table).ForwardLazy: every stage of the lazy forward
// transform, canonical output. Stages with span ≥ 8 broadcast one twiddle
// per block; the last three (span 4, 2, 1) run in registers over
// 16-element chunks.
TEXT ·forwardNTT(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ wp+24(FP), R9
	MOVQ q+32(FP), BX
	CONSTS(BX)
	MOVQ CX, R10 // span
	MOVQ $1, R11 // blocks

fwdStage:
	SHRQ $1, R10
	CMPQ R10, $8
	JLT  fwdTail
	MOVQ DI, SI            // lo pointer
	LEAQ (R8)(R11*8), R12  // &w[blocks]
	LEAQ (R9)(R11*8), R13  // &wp[blocks]
	MOVQ R11, R14

fwdBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $12, Z1, Z1
	LEAQ (SI)(R10*8), DX   // hi pointer
	MOVQ R10, BX

fwdInner:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 (DX), Z3
	CTBFLY(Z2, Z3, Z0, Z1, Z4, Z5)
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z3, (DX)
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, BX
	JNZ  fwdInner
	MOVQ DX, SI
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R14
	JNZ  fwdBlock
	SHLQ $1, R11
	JMP  fwdStage

fwdTail:
	// R11 = N/8 = first twiddle index of the span-4 stage.
	LEAQ permTab<>(SB), AX
	VMOVDQU64 PERM_A_LO(AX), Z16
	VMOVDQU64 PERM_A_HI(AX), Z17
	VMOVDQU64 PERM_B_LO(AX), Z18
	VMOVDQU64 PERM_B_HI(AX), Z19
	VMOVDQU64 PERM_C_LO(AX), Z20
	VMOVDQU64 PERM_C_HI(AX), Z21
	VMOVDQU64 PERM_D_LO(AX), Z22
	VMOVDQU64 PERM_D_HI(AX), Z23
	VMOVDQU64 PERM_T4(AX), Z24
	VMOVDQU64 PERM_T2(AX), Z25
	LEAQ (R8)(R11*8), R12  // span 4: &w[N/8], 2 per chunk
	LEAQ (R9)(R11*8), R13
	SHLQ $1, R11
	LEAQ (R8)(R11*8), R14  // span 2: &w[N/4], 4 per chunk
	LEAQ (R9)(R11*8), R15
	SHLQ $1, R11
	LEAQ (R8)(R11*8), R8   // span 1: &w[N/2], 8 per chunk
	LEAQ (R9)(R11*8), R9
	SHRQ $4, CX            // chunks

fwdChunk:
	VMOVDQU64 (DI), Z2
	VMOVDQU64 64(DI), Z3
	REPERM(Z2, Z3, Z16, Z17, Z6)
	VPERMQ (R12), Z24, Z0
	VPERMQ (R13), Z24, Z1
	VPSRLQ $12, Z1, Z1
	CTBFLY(Z2, Z3, Z0, Z1, Z4, Z5)
	REPERM(Z2, Z3, Z18, Z19, Z6)
	VPERMQ (R14), Z25, Z0
	VPERMQ (R15), Z25, Z1
	VPSRLQ $12, Z1, Z1
	CTBFLY(Z2, Z3, Z0, Z1, Z4, Z5)
	REPERM(Z2, Z3, Z20, Z21, Z6)
	VMOVDQU64 (R8), Z0
	VMOVDQU64 (R9), Z1
	VPSRLQ $12, Z1, Z1
	CTBFLY(Z2, Z3, Z0, Z1, Z4, Z5)
	CSUB(Z2, Z30, Z4)
	CSUB(Z2, Z31, Z4)
	CSUB(Z3, Z30, Z4)
	CSUB(Z3, Z31, Z4)
	REPERM(Z2, Z3, Z22, Z23, Z6)
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ $128, DI
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ CX
	JNZ  fwdChunk
	VZEROUPPER
	RET

// func inverseNTT(a *uint64, n int, w, wp *uint64, q, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64)
//
// Mirrors ntt.(*Table).InverseLazy: the first three stages (span 1, 2, 4)
// in registers over 16-element chunks, the middle stages with one
// broadcast twiddle per block, and the final stage folding N^-1 into its
// two Shoup multiplies, canonical output.
TEXT ·inverseNTT(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ wp+24(FP), R9
	MOVQ q+32(FP), BX
	CONSTS(BX)
	LEAQ permTab<>(SB), AX
	VMOVDQU64 PERM_E_LO(AX), Z16
	VMOVDQU64 PERM_E_HI(AX), Z17
	VMOVDQU64 PERM_C_LO(AX), Z18
	VMOVDQU64 PERM_C_HI(AX), Z19
	VMOVDQU64 PERM_B_LO(AX), Z20
	VMOVDQU64 PERM_B_HI(AX), Z21
	VMOVDQU64 PERM_A_LO(AX), Z22
	VMOVDQU64 PERM_A_HI(AX), Z23
	VMOVDQU64 PERM_T4(AX), Z24
	VMOVDQU64 PERM_T2(AX), Z25
	MOVQ CX, R11
	SHRQ $3, R11           // N/8
	LEAQ (R8)(R11*8), R12  // span 4: &w[N/8]
	LEAQ (R9)(R11*8), R13
	LEAQ (R12)(R11*8), R14 // span 2: &w[N/4]
	LEAQ (R13)(R11*8), R15
	LEAQ (R8)(CX*4), R10   // span 1: &w[N/2]
	LEAQ (R9)(CX*4), DX
	MOVQ DI, SI
	MOVQ CX, BX
	SHRQ $4, BX            // chunks

invChunk:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 64(SI), Z3
	REPERM(Z2, Z3, Z16, Z17, Z6)
	VMOVDQU64 (R10), Z0
	VMOVDQU64 (DX), Z1
	VPSRLQ $12, Z1, Z1
	GSBFLY(Z2, Z3, Z0, Z1, Z4, Z5, Z7)
	REPERM(Z2, Z3, Z18, Z19, Z6)
	VPERMQ (R14), Z25, Z0
	VPERMQ (R15), Z25, Z1
	VPSRLQ $12, Z1, Z1
	GSBFLY(Z2, Z3, Z0, Z1, Z4, Z5, Z7)
	REPERM(Z2, Z3, Z20, Z21, Z6)
	VPERMQ (R12), Z24, Z0
	VPERMQ (R13), Z24, Z1
	VPSRLQ $12, Z1, Z1
	GSBFLY(Z2, Z3, Z0, Z1, Z4, Z5, Z7)
	REPERM(Z2, Z3, Z22, Z23, Z6)
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z3, 64(SI)
	ADDQ $128, SI
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $64, R10
	ADDQ $64, DX
	DECQ BX
	JNZ  invChunk

	// Middle stages: span 8 … N/4, blocks N/16 … 2.
	MOVQ $8, R10           // span
	MOVQ CX, R11
	SHRQ $4, R11           // blocks

invStage:
	CMPQ R11, $1
	JLE  invFinal
	MOVQ DI, SI
	LEAQ (R8)(R11*8), R12
	LEAQ (R9)(R11*8), R13
	MOVQ R11, R14

invBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $12, Z1, Z1
	LEAQ (SI)(R10*8), DX
	MOVQ R10, BX

invInner:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 (DX), Z3
	GSBFLY(Z2, Z3, Z0, Z1, Z4, Z5, Z7)
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z3, (DX)
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $8, BX
	JNZ  invInner
	MOVQ DX, SI
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R14
	JNZ  invBlock
	SHRQ $1, R11
	SHLQ $1, R10
	JMP  invStage

invFinal:
	// lo' = (lo+hi)·nInv, hi' = (lo+2q-hi)·nInvRoot, both canonical.
	VPBROADCASTQ nInv+40(FP), Z0
	VPBROADCASTQ nInvShoup+48(FP), Z1
	VPSRLQ $12, Z1, Z1
	VPBROADCASTQ nInvRoot+56(FP), Z8
	VPBROADCASTQ nInvRootShoup+64(FP), Z9
	VPSRLQ $12, Z9, Z9
	LEAQ (DI)(CX*4), DX    // hi = a + N/2
	SHRQ $1, CX

invLast:
	VMOVDQU64 (DI), Z2
	VMOVDQU64 (DX), Z3
	VPADDQ Z3, Z2, Z6      // s = u+v
	VPADDQ Z30, Z2, Z7
	VPSUBQ Z3, Z7, Z7      // d = u+2q-v
	SHOUP52(Z6, Z0, Z1, Z2, Z4)
	CSUB(Z2, Z31, Z4)
	SHOUP52(Z7, Z8, Z9, Z3, Z4)
	CSUB(Z3, Z31, Z4)
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, (DX)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, CX
	JNZ  invLast
	VZEROUPPER
	RET

// func monomialSplit(sum, diff, e, o, m, ms *uint64, n int, q uint64)
//
// Mirrors the row loop of ring.(*Ring).MonomialSplitNTT:
// y = MulShoup(o, m, ms); diff = Sub(e, y); sum = Add(e, y).
TEXT ·monomialSplit(SB), NOSPLIT, $0-64
	MOVQ sum+0(FP), DI
	MOVQ diff+8(FP), SI
	MOVQ e+16(FP), R8
	MOVQ o+24(FP), R9
	MOVQ m+32(FP), R10
	MOVQ ms+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ q+56(FP), BX
	CONSTS(BX)
	XORQ AX, AX

splitLoop:
	VMOVDQU64 (R9)(AX*8), Z0
	VMOVDQU64 (R10)(AX*8), Z1
	VMOVDQU64 (R11)(AX*8), Z2
	VPSRLQ $12, Z2, Z2
	SHOUP52(Z0, Z1, Z2, Z3, Z4)
	CSUB(Z3, Z31, Z4)           // y
	VMOVDQU64 (R8)(AX*8), Z5    // x
	VPSUBQ Z3, Z5, Z6           // x-y, wrapped when x < y
	VPADDQ Z31, Z6, Z7
	VPMINUQ Z7, Z6, Z6
	VPADDQ Z3, Z5, Z5
	CSUB(Z5, Z31, Z4)
	VMOVDQU64 Z6, (SI)(AX*8)
	VMOVDQU64 Z5, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  splitLoop
	VZEROUPPER
	RET

// PAIRSUM: Z3 = a0[AX:]∘b0 + a1[AX:]∘b1 as a lazy sum below 4q, operands
// at R8..R13 in argument order.
#define PAIRSUM \
	VMOVDQU64 (R8)(AX*8), Z0; \
	VMOVDQU64 (R9)(AX*8), Z1; \
	VMOVDQU64 (R10)(AX*8), Z2; \
	VPSRLQ $12, Z2, Z2; \
	SHOUP52(Z0, Z1, Z2, Z3, Z4); \
	VMOVDQU64 (R11)(AX*8), Z5; \
	VMOVDQU64 (R12)(AX*8), Z6; \
	VMOVDQU64 (R13)(AX*8), Z7; \
	VPSRLQ $12, Z7, Z7; \
	SHOUP52(Z5, Z6, Z7, Z8, Z9); \
	VPADDQ Z8, Z3, Z3

// func mulShoupPair(out, a0, b0, s0, a1, b1, s1 *uint64, n int, q uint64)
//
// Mirrors the row loop of ring.(*Ring).MulCoeffShoupPairAdd:
// out += a0∘b0 + a1∘b1, canonical.
TEXT ·mulShoupPair(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ b0+16(FP), R9
	MOVQ s0+24(FP), R10
	MOVQ a1+32(FP), R11
	MOVQ b1+40(FP), R12
	MOVQ s1+48(FP), R13
	MOVQ n+56(FP), CX
	MOVQ q+64(FP), BX
	CONSTS(BX)
	XORQ AX, AX

pairLoop:
	PAIRSUM
	CSUB(Z3, Z30, Z4)           // < 2q
	VPADDQ (DI)(AX*8), Z3, Z3   // < 3q
	CSUB(Z3, Z30, Z4)
	CSUB(Z3, Z31, Z4)
	VMOVDQU64 Z3, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  pairLoop
	VZEROUPPER
	RET

// DUALPROD: Z3 = aB[AX:]∘k, Z6 = aA[AX:]∘k as lazy products below 2q,
// operands at R8..R11 in argument order.
#define DUALPROD \
	VMOVDQU64 (R10)(AX*8), Z1; \
	VMOVDQU64 (R11)(AX*8), Z2; \
	VPSRLQ $12, Z2, Z2; \
	VMOVDQU64 (R8)(AX*8), Z0; \
	SHOUP52(Z0, Z1, Z2, Z3, Z4); \
	VMOVDQU64 (R9)(AX*8), Z5; \
	SHOUP52(Z5, Z1, Z2, Z6, Z7)

// func mulShoupDual(outB, outA, aB, aA, k, s *uint64, n int, q uint64, add bool)
//
// Mirrors the row loops of ring.(*Ring).MulCoeffShoupDual and (add)
// MulCoeffShoupDualAdd: outB (+)= aB∘k, outA (+)= aA∘k, canonical.
TEXT ·mulShoupDual(SB), NOSPLIT, $0-65
	MOVQ outB+0(FP), DI
	MOVQ outA+8(FP), SI
	MOVQ aB+16(FP), R8
	MOVQ aA+24(FP), R9
	MOVQ k+32(FP), R10
	MOVQ s+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ q+56(FP), BX
	CONSTS(BX)
	XORQ AX, AX
	CMPB add+64(FP), $0
	JNE  dualAddLoop

dualLoop:
	DUALPROD
	CSUB(Z3, Z31, Z4)
	CSUB(Z6, Z31, Z7)
	VMOVDQU64 Z3, (DI)(AX*8)
	VMOVDQU64 Z6, (SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  dualLoop
	VZEROUPPER
	RET

dualAddLoop:
	DUALPROD
	VPADDQ (DI)(AX*8), Z3, Z3   // < 3q
	CSUB(Z3, Z30, Z4)
	CSUB(Z3, Z31, Z4)
	VPADDQ (SI)(AX*8), Z6, Z6
	CSUB(Z6, Z30, Z7)
	CSUB(Z6, Z31, Z7)
	VMOVDQU64 Z3, (DI)(AX*8)
	VMOVDQU64 Z6, (SI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  dualAddLoop
	VZEROUPPER
	RET

// BARRETT52: out = x - ⌊x·mu/2^52⌋·q mod 2^52 with mu = ⌊2^52/q⌋ in Z27, in
// [0, 2q) for any x < 2^52; as in SHOUP52 the subtraction is an addition
// of ⌊…⌋·(2^52-q). t is scratch; out and t must differ from x.
#define BARRETT52(x, out, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z27, x, t; \
	VMOVDQA64 x, out; \
	VPMADD52LUQ Z28, t, out; \
	VPANDQ Z29, out, out

// func centredLift(out, x *uint64, n int, q, mu, half, negAdd uint64)
//
// Mirrors the row loop of ring.(*Ring).CentredLiftRow: the canonical
// residue of x mod q, plus negAdd in exactly the lanes where x > half.
TEXT ·centredLift(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), BX
	CONSTS(BX)
	VPBROADCASTQ mu+32(FP), Z27
	VPBROADCASTQ half+40(FP), Z26
	VPBROADCASTQ negAdd+48(FP), Z25
	XORQ AX, AX

liftLoop:
	VMOVDQU64 (SI)(AX*8), Z0
	BARRETT52(Z0, Z1, Z2)
	CSUB(Z1, Z31, Z2)
	VPCMPUQ $6, Z26, Z0, K1     // x > half
	VPADDQ Z25, Z1, K1, Z1
	VMOVDQU64 Z1, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  liftLoop
	VZEROUPPER
	RET

// func modDownRow(out, a, sp *uint64, n int, q, mu, halfP, qspL, pInv, pInvShoup uint64)
//
// Mirrors the limb loop of ring.(*Ring).ModDownInto:
// d = a + 2q - (sp mod q) (+ qspL where sp > halfP), below 4q for a < q;
// out = MulShoup(d, pInv), canonical.
TEXT ·modDownRow(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ sp+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ q+32(FP), BX
	CONSTS(BX)
	VPBROADCASTQ mu+40(FP), Z27
	VPBROADCASTQ halfP+48(FP), Z26
	VPBROADCASTQ qspL+56(FP), Z25
	VPBROADCASTQ pInv+64(FP), Z24
	VPBROADCASTQ pInvShoup+72(FP), Z23
	VPSRLQ $12, Z23, Z23
	XORQ AX, AX

modDownLoop:
	VMOVDQU64 (R8)(AX*8), Z0
	BARRETT52(Z0, Z1, Z2)       // red < 2q
	VMOVDQU64 (SI)(AX*8), Z3
	VPADDQ Z30, Z3, Z3
	VPSUBQ Z1, Z3, Z3           // a + 2q - red
	VPCMPUQ $6, Z26, Z0, K1     // sp > halfP
	VPADDQ Z25, Z3, K1, Z3      // d < 4q
	SHOUP52(Z3, Z24, Z23, Z4, Z5)
	CSUB(Z4, Z31, Z5)
	VMOVDQU64 Z4, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  modDownLoop
	VZEROUPPER
	RET

// GATHER8: Z0 = a[perm[AX:AX+8]] for a at SI and perm at R8, reading only
// the lanes whose index is below n (Z5, sixteen dwords; the eight the
// VEX load zeroed always pass) and leaving 0 in the others; K2 keeps the
// AND of the lane masks. Clobbers Z1 and K1.
#define GATHER8 \
	VMOVDQU (R8)(AX*4), Y1; \
	VPCMPUD $1, Z5, Z1, K1; \
	KANDW K1, K2, K2; \
	VPXORQ Z0, Z0, Z0; \
	VPGATHERDQ (SI)(Y1*8), K1, Z0

// GATHERRET: ret = every index seen was in range.
#define GATHERRET(ret) \
	KMOVW K2, AX; \
	CMPB AL, $0xff; \
	SETEQ ret

// func gather(out, a *uint64, perm *uint32, n int) bool
//
// Mirrors the row loop of ring.(*Ring).AutomorphNTT: out[j] = a[perm[j]].
// out must not overlap a. An index ≥ n is not dereferenced and makes the
// result false.
TEXT ·gather(SB), NOSPLIT, $0-33
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ perm+16(FP), R8
	MOVQ n+24(FP), CX
	VPBROADCASTD CX, Z5
	KXNORW K2, K2, K2
	XORQ AX, AX

gatherLoop:
	GATHER8
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  gatherLoop
	GATHERRET(ret+32(FP))
	VZEROUPPER
	RET

// func gatherAdd(out, a *uint64, perm *uint32, n int, q uint64) bool
//
// Mirrors the row loop of ring.(*Ring).AutomorphNTTAddInto:
// out[j] = Add(out[j], a[perm[j]]) on canonical rows. out must not
// overlap a; indices as in gather.
TEXT ·gatherAdd(SB), NOSPLIT, $0-41
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ perm+16(FP), R8
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Z31
	VPBROADCASTD CX, Z5
	KXNORW K2, K2, K2
	XORQ AX, AX

gatherAddLoop:
	GATHER8
	VPADDQ (DI)(AX*8), Z0, Z0
	CSUB(Z0, Z31, Z2)
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  gatherAddLoop
	GATHERRET(ret+40(FP))
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
//
// CPUID leaf eaxArg, subleaf ecxArg. With xgetbv, the whole of the
// start-up detection in vec_amd64.go; neither touches a vector register.
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0, the register state the OS saves; only called once CPUID reports
// OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

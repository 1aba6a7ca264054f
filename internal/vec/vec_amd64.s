// AVX-512 IFMA row kernels. Each function mirrors one Go loop (named in
// its header comment) eight lanes at a time and produces the same output
// row bit for bit; DESIGN.md §11 "Vector kernels" carries the range
// arguments. Preconditions, enforced by the Go wrappers in vec_amd64.go:
// 4q < 2^52, every row length a positive multiple of 8 (NTT: N ≥ 32), and
// a source or dropped modulus whose residues fit 52 bits.

#include "textflag.h"

// Lane orders of the transforms' register stages. A 16-word chunk is held
// as a register pair (L, H); VPERMT2Q/VPERMI2Q address L as 0..7 and H as
// 8..15. SHUF is the perfect shuffle (new L = 0 8 1 9 2 10 3 11, new H =
// 4 12 5 13 6 14 7 15), UNSHUF its inverse (new L the even words, new H
// the odd). Four shuffles are the identity, and the orders between them
// put a stage's twiddles where one broadcast load leaves them.
DATA shufTab<>+0x000(SB)/8, $0 // SHUF L
DATA shufTab<>+0x008(SB)/8, $8
DATA shufTab<>+0x010(SB)/8, $1
DATA shufTab<>+0x018(SB)/8, $9
DATA shufTab<>+0x020(SB)/8, $2
DATA shufTab<>+0x028(SB)/8, $10
DATA shufTab<>+0x030(SB)/8, $3
DATA shufTab<>+0x038(SB)/8, $11
DATA shufTab<>+0x040(SB)/8, $4 // SHUF H
DATA shufTab<>+0x048(SB)/8, $12
DATA shufTab<>+0x050(SB)/8, $5
DATA shufTab<>+0x058(SB)/8, $13
DATA shufTab<>+0x060(SB)/8, $6
DATA shufTab<>+0x068(SB)/8, $14
DATA shufTab<>+0x070(SB)/8, $7
DATA shufTab<>+0x078(SB)/8, $15
DATA shufTab<>+0x080(SB)/8, $0 // UNSHUF L
DATA shufTab<>+0x088(SB)/8, $2
DATA shufTab<>+0x090(SB)/8, $4
DATA shufTab<>+0x098(SB)/8, $6
DATA shufTab<>+0x0a0(SB)/8, $8
DATA shufTab<>+0x0a8(SB)/8, $10
DATA shufTab<>+0x0b0(SB)/8, $12
DATA shufTab<>+0x0b8(SB)/8, $14
DATA shufTab<>+0x0c0(SB)/8, $1 // UNSHUF H
DATA shufTab<>+0x0c8(SB)/8, $3
DATA shufTab<>+0x0d0(SB)/8, $5
DATA shufTab<>+0x0d8(SB)/8, $7
DATA shufTab<>+0x0e0(SB)/8, $9
DATA shufTab<>+0x0e8(SB)/8, $11
DATA shufTab<>+0x0f0(SB)/8, $13
DATA shufTab<>+0x0f8(SB)/8, $15
GLOBL shufTab<>(SB), RODATA|NOPTR, $0x100

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

// The transforms hold each value as a lane word congruent to it mod 2^52:
// the multipliers read only a lane's low 52 bits, so a Shoup product left
// unmasked (below 2^53) and the sums and differences built on it stay
// exact there. Only a comparison needs the value itself, and masks first.

// CT: the forward butterfly on (lo, hi) in place: v = hi·w −
// ⌊hi·wp/2^52⌋·q, a value in [0, 2q) left unmasked, then lo' = lo+v and
// hi' = lo+2q−v. t and v are scratch; w and wp may be memory operands.
#define CT(lo, hi, w, wp, t, v) \
	VPXORQ t, t, t; \
	VPMADD52HUQ wp, hi, t; \
	VPXORQ v, v, v; \
	VPMADD52LUQ w, hi, v; \
	VPMADD52LUQ Z28, t, v; \
	VPADDQ Z30, lo, hi; \
	VPSUBQ v, hi, hi; \
	VPADDQ v, lo, lo

// GS: the inverse butterfly on (lo, hi) in place with subtraction
// constant c (a multiple of q above hi): d = lo+c−hi, lo' = lo+hi,
// hi' = d·w − ⌊d·wp/2^52⌋·q (in [0, 2q), unmasked). t and d are scratch;
// w and wp may be memory operands.
#define GS(lo, hi, w, wp, c, t, d) \
	VPADDQ c, lo, d; \
	VPSUBQ hi, d, d; \
	VPADDQ hi, lo, lo; \
	VPXORQ t, t, t; \
	VPMADD52HUQ wp, d, t; \
	VPXORQ hi, hi, hi; \
	VPMADD52LUQ w, d, hi; \
	VPMADD52LUQ Z28, t, hi

// The reductions a reducing pass adds, each a mask to the value and one
// conditional subtraction: 2q off the forward's lo input before its
// butterfly (CTRED), c off the inverse's sum after it (GSRED). A lazy
// pass expands NORED2/NORED3 instead.
#define CTRED(u, t) \
	VPANDQ Z29, u, u; \
	CSUB(u, Z30, t)

#define GSRED(s, c, t) \
	VPANDQ Z29, s, s; \
	CSUB(s, c, t)

#define NORED2(u, t)
#define NORED3(s, c, t)

// CANON: x = the canonical residue of the value of lane word x, for any
// value below 2^52: Barrett by mu = ⌊2^52/q⌋ in Z27 (BARRETT52 below, in
// place) into [0, 2q), then one conditional subtraction. t is scratch.
#define CANON(x, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z27, x, t; \
	VPMADD52LUQ Z28, t, x; \
	VPANDQ Z29, x, x; \
	CSUB(x, Z31, t)

// PERM2: (l, x) = (il(l‖h), ih(l‖h)), the words of l‖h at the indices in
// il and ih; h is free afterwards.
#define PERM2(l, h, x, il, ih) \
	VMOVDQA64 ih, x; \
	VPERMI2Q h, l, x; \
	VPERMT2Q h, il, l

// Forward passes. Pass registers: DI = a, R8 = &w[0], R9 = wp − w (bytes),
// R11 = blocks of the pass's first stage, R12 = the span of its last stage
// in bytes; R15 = the reduce schedule, bit 0 for this pass.

// FWDR4: two stages per pass. Block i of the first stage (span 2h, twiddle
// w[B+i]) holds quarters Q0..Q3 of h words: (Q0, Q2) and (Q1, Q3) go
// through w[B+i], then (Q0, Q1) through w[2B+2i] and (Q2, Q3) through
// w[2B+2i+1]. R13 = 3h in bytes; AX and BX walk &w[B+i] and &w[2B+2i].
// RED is CTRED or NORED2; LOAD (LDR4 or LIFTR4) fills Z6..Z9 with the
// quarters at SI.
#define FWDR4(block, inner, RED, LOAD) \
	MOVQ DI, SI; \
	LEAQ (R8)(R11*8), AX; \
	LEAQ (AX)(R11*8), BX; \
	MOVQ R11, CX; \
block: \
	VPBROADCASTQ (AX), Z0; \
	VPBROADCASTQ (AX)(R9*1), Z1; \
	VPBROADCASTQ (BX), Z2; \
	VPBROADCASTQ (BX)(R9*1), Z3; \
	VPBROADCASTQ 8(BX), Z4; \
	VPBROADCASTQ 8(BX)(R9*1), Z5; \
	LEAQ (SI)(R12*1), DX; \
inner: \
	LOAD; \
	RED(Z6, Z10); \
	RED(Z7, Z12); \
	CT(Z6, Z8, Z0, Z1, Z10, Z11); \
	CT(Z7, Z9, Z0, Z1, Z12, Z13); \
	RED(Z6, Z10); \
	RED(Z8, Z12); \
	CT(Z6, Z7, Z2, Z3, Z10, Z11); \
	CT(Z8, Z9, Z4, Z5, Z12, Z13); \
	VMOVDQU64 Z6, (SI); \
	VMOVDQU64 Z7, (SI)(R12*1); \
	VMOVDQU64 Z8, (SI)(R12*2); \
	VMOVDQU64 Z9, (SI)(R13*1); \
	ADDQ $64, SI; \
	CMPQ SI, DX; \
	JLT inner; \
	ADDQ R13, SI; \
	ADDQ $8, AX; \
	ADDQ $16, BX; \
	DECQ CX; \
	JNZ block

// LIFT: z = the centred lift of the canonical residue at mem: the word
// itself, plus negAdd (Z23) where it is above half (Z24) — the lift's
// constant makes that word congruent to the residue minus the source
// modulus. Clobbers K1.
#define LIFT(mem, z) \
	VMOVDQU64 mem, z; \
	VPCMPUQ $6, Z24, z, K1; \
	VPADDQ Z23, z, K1, z

// The first pass's loads. A plain pass reads the quarters in place; a
// lifted one reads them at SI + R10 (the source row) and lifts each word
// as it loads it, with DI as scratch.
#define LDR4 \
	VMOVDQU64 (SI), Z6; \
	VMOVDQU64 (SI)(R12*1), Z7; \
	VMOVDQU64 (SI)(R12*2), Z8; \
	VMOVDQU64 (SI)(R13*1), Z9

#define LIFTR4 \
	LEAQ (SI)(R10*1), DI; \
	LIFT((DI), Z6); \
	LIFT((DI)(R12*1), Z7); \
	LIFT((DI)(R12*2), Z8); \
	LIFT((DI)(R13*1), Z9)

// FWD16: the span-16 stage of a five-stage tail, which pairs the two
// chunks word for word under twiddle w[N/32+c/2] (R8/R9, advanced here).
#define FWD16(RED) \
	VPBROADCASTQ (R8), Z5; \
	VPBROADCASTQ (R9), Z6; \
	RED(Z0, Z3); \
	RED(Z1, Z11); \
	CT(Z0, Z8, Z5, Z6, Z3, Z4); \
	CT(Z1, Z9, Z5, Z6, Z11, Z12); \
	ADDQ $8, R8; \
	ADDQ $8, R9

#define NO16(RED)

// FWDTAIL: the last four stages (span 8, 4, 2, 1) in registers — five with
// FWD16 for S16 — two 16-word chunks per iteration, then the canonical
// reduction. Chunk c is (Z0, Z1) and chunk c+1 (Z8, Z9), natural order;
// the span-8 stage pairs them as they are, and each shuffle brings the
// next stage's pairs into (L, H): span 4 pairs L = 0 8 1 9 2 10 3 11 with
// H = 4 12 5 13 6 14 7 15 under twiddles w0 w1 w0 w1 … (a 128-bit
// broadcast of w[N/8+2c]), span 2 L = 0 4 8 12 1 5 9 13 with H = 2 6 10
// 14 3 7 11 15 under w0 w1 w2 w3 w0 w1 w2 w3 (a 256-bit broadcast of
// w[N/4+4c]), span 1 the even words with the odd under w[N/2+8c …]; a
// fourth shuffle restores natural order. AX = 8c; R10/R11, R12/R13,
// R14/R15, BX/DX = w/wp at N/16, N/8, N/4, N/2. LOAD (LDTAIL, or LIFTTAIL
// when the tail is the first pass of a lifted transform) fills the chunks.
#define FWDTAIL(loop, RED, S16, LOAD) \
loop: \
	LOAD; \
	S16(RED); \
	VPBROADCASTQ (R10)(AX*1), Z5; \
	VPBROADCASTQ (R11)(AX*1), Z6; \
	VPBROADCASTQ 8(R10)(AX*1), Z13; \
	VPBROADCASTQ 8(R11)(AX*1), Z14; \
	RED(Z0, Z3); \
	RED(Z8, Z11); \
	CT(Z0, Z1, Z5, Z6, Z3, Z4); \
	CT(Z8, Z9, Z13, Z14, Z11, Z12); \
	PERM2(Z0, Z1, Z2, Z26, Z25); \
	PERM2(Z8, Z9, Z10, Z26, Z25); \
	VBROADCASTI32X4 (R12)(AX*2), Z5; \
	VBROADCASTI32X4 (R13)(AX*2), Z6; \
	VBROADCASTI32X4 16(R12)(AX*2), Z13; \
	VBROADCASTI32X4 16(R13)(AX*2), Z14; \
	RED(Z0, Z3); \
	RED(Z8, Z11); \
	CT(Z0, Z2, Z5, Z6, Z3, Z4); \
	CT(Z8, Z10, Z13, Z14, Z11, Z12); \
	PERM2(Z0, Z2, Z1, Z26, Z25); \
	PERM2(Z8, Z10, Z9, Z26, Z25); \
	VBROADCASTI64X4 (R14)(AX*4), Z5; \
	VBROADCASTI64X4 (R15)(AX*4), Z6; \
	VBROADCASTI64X4 32(R14)(AX*4), Z13; \
	VBROADCASTI64X4 32(R15)(AX*4), Z14; \
	RED(Z0, Z3); \
	RED(Z8, Z11); \
	CT(Z0, Z1, Z5, Z6, Z3, Z4); \
	CT(Z8, Z9, Z13, Z14, Z11, Z12); \
	PERM2(Z0, Z1, Z2, Z26, Z25); \
	PERM2(Z8, Z9, Z10, Z26, Z25); \
	RED(Z0, Z3); \
	RED(Z8, Z11); \
	CT(Z0, Z2, (BX)(AX*8), (DX)(AX*8), Z3, Z4); \
	CT(Z8, Z10, 64(BX)(AX*8), 64(DX)(AX*8), Z11, Z12); \
	CANON(Z0, Z3); \
	CANON(Z2, Z4); \
	CANON(Z8, Z11); \
	CANON(Z10, Z12); \
	PERM2(Z0, Z2, Z1, Z26, Z25); \
	PERM2(Z8, Z10, Z9, Z26, Z25); \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z1, 64(DI); \
	VMOVDQU64 Z8, 128(DI); \
	VMOVDQU64 Z9, 192(DI); \
	ADDQ $256, DI; \
	ADDQ $16, AX; \
	DECQ CX; \
	JNZ loop

// The tail's chunk loads: in place, or (LIFTTAIL) lifted from the source
// row at DI + SI.
#define LDTAIL \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	VMOVDQU64 128(DI), Z8; \
	VMOVDQU64 192(DI), Z9

#define LIFTTAIL \
	LIFT((DI)(SI*1), Z0); \
	LIFT(64(DI)(SI*1), Z1); \
	LIFT(128(DI)(SI*1), Z8); \
	LIFT(192(DI)(SI*1), Z9)

// func forwardNTT(a, src *uint64, n int, w, wp *uint64, q, mu, reduce, half, negAdd uint64)
//
// Mirrors ntt.(*Table).ForwardLazy, and with src set
// ntt.(*Table).ForwardLazyLift: the lazy forward transform, canonical
// output. wp holds 52-bit companions, mu = ⌊2^52/q⌋. The passes: two
// stages per pass, then the register stages — five when log N is odd,
// else four. Bit p of reduce makes pass p reduce its lo inputs (the
// wrapper's schedule keeps every value below 2^52); a lazy pass does no
// reduction at all. With src set the first pass reads src instead of a
// and lifts each word as it loads it (LIFT, constants half and negAdd);
// every later pass runs in place on a.
TEXT ·forwardNTT(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), DI
	MOVQ n+16(FP), CX
	MOVQ w+24(FP), R8
	MOVQ wp+32(FP), R9
	MOVQ q+40(FP), BX
	CONSTS(BX)
	VPBROADCASTQ mu+48(FP), Z27
	VPBROADCASTQ half+64(FP), Z24
	VPBROADCASTQ negAdd+72(FP), Z23
	MOVQ src+8(FP), R10
	SUBQ DI, R10           // src − a, read by a lifted first pass
	MOVQ reduce+56(FP), R15
	SUBQ R8, R9            // wp − w
	MOVQ $1, R11           // blocks
	MOVQ CX, R12
	SHLQ $2, R12           // span N/2 in bytes
	BSFQ CX, CX
	ANDQ $1, CX
	MOVQ $128, R14
	SHLQ CX, R14           // the tail's first span in bytes, doubled

fwdPairs:
	SHRQ $1, R12           // span of the pass's second stage
	CMPQ R12, R14
	JLT  fwdTail
	LEAQ (R12)(R12*2), R13
	CMPQ R11, $1           // the first pass lifts when src is set
	JNE  fwdR4Plain
	CMPQ src+8(FP), $0
	JNE  fwdR4Lift

fwdR4Plain:
	TESTQ $1, R15
	JNZ  fwdR4Red
	FWDR4(fwdR4LazyBlock, fwdR4LazyInner, NORED2, LDR4)
	JMP  fwdR4Done

fwdR4Red:
	FWDR4(fwdR4RedBlock, fwdR4RedInner, CTRED, LDR4)
	JMP  fwdR4Done

fwdR4Lift:
	TESTQ $1, R15
	JNZ  fwdR4LiftRed
	FWDR4(fwdR4LiftLazyBlock, fwdR4LiftLazyInner, NORED2, LIFTR4)
	JMP  fwdR4Lifted

fwdR4LiftRed:
	FWDR4(fwdR4LiftRedBlock, fwdR4LiftRedInner, CTRED, LIFTR4)

fwdR4Lifted:
	MOVQ a+0(FP), DI

fwdR4Done:
	SHRQ $1, R15
	SHLQ $2, R11
	SHRQ $1, R12
	JMP  fwdPairs

fwdTail:
	LEAQ shufTab<>(SB), AX
	VMOVDQU64 0x00(AX), Z26
	VMOVDQU64 0x40(AX), Z25
	ADDQ R8, R9            // wp
	MOVQ R15, AX
	ANDQ $1, AX            // the tail's reduce bit
	CMPQ R14, $128
	JEQ  fwdTailSized
	ORQ  $2, AX            // five stages
	CMPQ R11, $1           // N = 32: the tail is the first pass
	JNE  fwdTailSized
	CMPQ src+8(FP), $0
	JEQ  fwdTailSized
	ORQ  $4, AX            // and it lifts

fwdTailSized:
	MOVQ n+16(FP), SI
	SHLQ $2, SI            // N/2 words in bytes
	LEAQ (R8)(SI*1), BX    // N/2
	LEAQ (R9)(SI*1), DX
	SHRQ $1, SI
	LEAQ (R8)(SI*1), R14   // N/4
	LEAQ (R9)(SI*1), R15
	SHRQ $1, SI
	LEAQ (R8)(SI*1), R12   // N/8
	LEAQ (R9)(SI*1), R13
	SHRQ $1, SI
	LEAQ (R8)(SI*1), R10   // N/16
	LEAQ (R9)(SI*1), R11
	SHRQ $1, SI
	ADDQ SI, R8            // N/32
	ADDQ SI, R9
	MOVQ SI, CX
	SHRQ $3, CX            // N/32 iterations
	MOVQ AX, SI
	XORQ AX, AX
	CMPQ SI, $1
	JEQ  fwdTail4Red
	CMPQ SI, $2
	JEQ  fwdTail5Lazy
	CMPQ SI, $3
	JEQ  fwdTail5Red
	CMPQ SI, $6
	JEQ  fwdTail5LiftLazy
	CMPQ SI, $7
	JEQ  fwdTail5LiftRed
	FWDTAIL(fwdTail4LazyLoop, NORED2, NO16, LDTAIL)
	VZEROUPPER
	RET

fwdTail4Red:
	FWDTAIL(fwdTail4RedLoop, CTRED, NO16, LDTAIL)
	VZEROUPPER
	RET

fwdTail5Lazy:
	FWDTAIL(fwdTail5LazyLoop, NORED2, FWD16, LDTAIL)
	VZEROUPPER
	RET

fwdTail5Red:
	FWDTAIL(fwdTail5RedLoop, CTRED, FWD16, LDTAIL)
	VZEROUPPER
	RET

fwdTail5LiftLazy:
	MOVQ src+8(FP), SI
	SUBQ DI, SI            // src − a
	FWDTAIL(fwdTail5LiftLazyLoop, NORED2, FWD16, LIFTTAIL)
	VZEROUPPER
	RET

fwdTail5LiftRed:
	MOVQ src+8(FP), SI
	SUBQ DI, SI
	FWDTAIL(fwdTail5LiftRedLoop, CTRED, FWD16, LIFTTAIL)
	VZEROUPPER
	RET

// Inverse passes. Pass registers: DI = a, R8 = &w[0], R9 = wp − w (bytes),
// R10 = &c[s] for the pass's first stage s, R11 = blocks of that stage,
// R12 = its span in bytes, R14 = N; R15 = the reduce schedule, bit 0 for
// this pass.

// INV16: the span-16 stage of a five-stage head, which pairs the two
// chunks word for word under twiddle w[N/32+c/2] (R8/R9, advanced here)
// and constant c[4] (Z20).
#define INV16(RED) \
	VPBROADCASTQ (R8), Z5; \
	VPBROADCASTQ (R9), Z6; \
	GS(Z0, Z8, Z5, Z6, Z20, Z3, Z4); \
	GS(Z1, Z9, Z5, Z6, Z20, Z11, Z12); \
	RED(Z0, Z20, Z3); \
	RED(Z1, Z20, Z11); \
	ADDQ $8, R8; \
	ADDQ $8, R9

#define NOINV16(RED)

// INVHEAD: the first four stages (span 1, 2, 4, 8) in registers — five
// with INV16 for S16 — two 16-word chunks per iteration, in the lane
// orders of FWDTAIL taken backwards: UNSHUF brings span 1's pairs into
// (L, H), then span 2's, span 4's and natural order. Constants c[0..3] in
// Z24, Z23, Z22, Z21; RED is GSRED or NORED3. AX = 8c; BX/DX, R14/R15,
// R12/R13, R10/R11 = w/wp at N/2, N/4, N/8, N/16.
#define INVHEAD(loop, RED, S16) \
loop: \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 64(DI), Z1; \
	VMOVDQU64 128(DI), Z8; \
	VMOVDQU64 192(DI), Z9; \
	PERM2(Z0, Z1, Z2, Z26, Z25); \
	PERM2(Z8, Z9, Z10, Z26, Z25); \
	GS(Z0, Z2, (BX)(AX*8), (DX)(AX*8), Z24, Z3, Z4); \
	GS(Z8, Z10, 64(BX)(AX*8), 64(DX)(AX*8), Z24, Z11, Z12); \
	RED(Z0, Z24, Z3); \
	RED(Z8, Z24, Z11); \
	PERM2(Z0, Z2, Z1, Z26, Z25); \
	PERM2(Z8, Z10, Z9, Z26, Z25); \
	VBROADCASTI64X4 (R14)(AX*4), Z5; \
	VBROADCASTI64X4 (R15)(AX*4), Z6; \
	VBROADCASTI64X4 32(R14)(AX*4), Z13; \
	VBROADCASTI64X4 32(R15)(AX*4), Z14; \
	GS(Z0, Z1, Z5, Z6, Z23, Z3, Z4); \
	GS(Z8, Z9, Z13, Z14, Z23, Z11, Z12); \
	RED(Z0, Z23, Z3); \
	RED(Z8, Z23, Z11); \
	PERM2(Z0, Z1, Z2, Z26, Z25); \
	PERM2(Z8, Z9, Z10, Z26, Z25); \
	VBROADCASTI32X4 (R12)(AX*2), Z5; \
	VBROADCASTI32X4 (R13)(AX*2), Z6; \
	VBROADCASTI32X4 16(R12)(AX*2), Z13; \
	VBROADCASTI32X4 16(R13)(AX*2), Z14; \
	GS(Z0, Z2, Z5, Z6, Z22, Z3, Z4); \
	GS(Z8, Z10, Z13, Z14, Z22, Z11, Z12); \
	RED(Z0, Z22, Z3); \
	RED(Z8, Z22, Z11); \
	PERM2(Z0, Z2, Z1, Z26, Z25); \
	PERM2(Z8, Z10, Z9, Z26, Z25); \
	VPBROADCASTQ (R10)(AX*1), Z5; \
	VPBROADCASTQ (R11)(AX*1), Z6; \
	VPBROADCASTQ 8(R10)(AX*1), Z13; \
	VPBROADCASTQ 8(R11)(AX*1), Z14; \
	GS(Z0, Z1, Z5, Z6, Z21, Z3, Z4); \
	GS(Z8, Z9, Z13, Z14, Z21, Z11, Z12); \
	RED(Z0, Z21, Z3); \
	RED(Z8, Z21, Z11); \
	S16(RED); \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z1, 64(DI); \
	VMOVDQU64 Z8, 128(DI); \
	VMOVDQU64 Z9, 192(DI); \
	ADDQ $256, DI; \
	ADDQ $16, AX; \
	DECQ CX; \
	JNZ loop

// INVR4: two stages per pass. Block i of the second stage (span 2h,
// twiddle w[B/2+i]) holds quarters Q0..Q3 of h words: (Q0, Q1) go through
// w[B+2i] and (Q2, Q3) through w[B+2i+1], then (Q0, Q2) and (Q1, Q3)
// through w[B/2+i]; constants in Z21 and Z22. R13 = 3h in bytes; AX and
// BX walk &w[B+2i] and &w[B/2+i].
#define INVR4(block, inner, RED) \
	MOVQ DI, SI; \
	LEAQ (R8)(R11*8), AX; \
	MOVQ R11, CX; \
	SHRQ $1, CX; \
	LEAQ (R8)(CX*8), BX; \
block: \
	VPBROADCASTQ (AX), Z0; \
	VPBROADCASTQ (AX)(R9*1), Z1; \
	VPBROADCASTQ 8(AX), Z2; \
	VPBROADCASTQ 8(AX)(R9*1), Z3; \
	VPBROADCASTQ (BX), Z4; \
	VPBROADCASTQ (BX)(R9*1), Z5; \
	LEAQ (SI)(R12*1), DX; \
inner: \
	VMOVDQU64 (SI), Z6; \
	VMOVDQU64 (SI)(R12*1), Z7; \
	VMOVDQU64 (SI)(R12*2), Z8; \
	VMOVDQU64 (SI)(R13*1), Z9; \
	GS(Z6, Z7, Z0, Z1, Z21, Z10, Z11); \
	GS(Z8, Z9, Z2, Z3, Z21, Z12, Z13); \
	RED(Z6, Z21, Z10); \
	RED(Z8, Z21, Z12); \
	GS(Z6, Z8, Z4, Z5, Z22, Z10, Z11); \
	GS(Z7, Z9, Z4, Z5, Z22, Z12, Z13); \
	RED(Z6, Z22, Z10); \
	RED(Z7, Z22, Z12); \
	VMOVDQU64 Z6, (SI); \
	VMOVDQU64 Z7, (SI)(R12*1); \
	VMOVDQU64 Z8, (SI)(R12*2); \
	VMOVDQU64 Z9, (SI)(R13*1); \
	ADDQ $64, SI; \
	CMPQ SI, DX; \
	JLT inner; \
	ADDQ R13, SI; \
	ADDQ $16, AX; \
	ADDQ $8, BX; \
	DECQ CX; \
	JNZ block

// INVLAST: the final stage (span N/2) on the halves at DI and DX up to CX:
// it forms s = u+v in Z6 and d = u+c−v in Z7 (c in Z21), and FIN
// multiplies them by their constants (s by Z0, companion Z1; d by Z2,
// companion Z3) and writes them.
#define INVLAST(loop, FIN) \
loop: \
	VMOVDQU64 (DI), Z4; \
	VMOVDQU64 (DX), Z5; \
	VPADDQ Z5, Z4, Z6; \
	VPADDQ Z21, Z4, Z7; \
	VPSUBQ Z5, Z7, Z7; \
	FIN; \
	ADDQ $64, DI; \
	ADDQ $64, DX; \
	CMPQ DI, CX; \
	JLT loop

// FINPLAIN: s·nInv and d·nInvRoot, canonical, in place.
#define FINPLAIN \
	SHOUP52(Z6, Z0, Z1, Z8, Z9); \
	SHOUP52(Z7, Z2, Z3, Z10, Z11); \
	CSUB(Z8, Z31, Z9); \
	CSUB(Z10, Z31, Z11); \
	VMOVDQU64 Z8, (DI); \
	VMOVDQU64 Z10, (DX)

// DROP: out = x·k − centred(s)·p^-1 mod q, canonical, for x below 2^52 and
// s the dropped limb's residue at spm: x·k + s·(−p^-1) (Z12, companion
// Z13) as one Shoup pair — both products summed and reduced by their
// summed quotient estimates, which leaves [0, 4q) — plus 1 ≡ p·p^-1 where
// s > halfP (Z14; Z15 = 1), then two conditional subtractions. Writes
// outm; clobbers Z16..Z18 and K1.
#define DROP(x, k, kp, spm, outm) \
	VMOVDQU64 spm, Z16; \
	VPCMPUQ $6, Z14, Z16, K1; \
	VPXORQ Z18, Z18, Z18; \
	VPMADD52HUQ kp, x, Z18; \
	VPMADD52HUQ Z13, Z16, Z18; \
	VPXORQ Z17, Z17, Z17; \
	VPMADD52LUQ k, x, Z17; \
	VPMADD52LUQ Z12, Z16, Z17; \
	VPMADD52LUQ Z28, Z18, Z17; \
	VPANDQ Z29, Z17, Z17; \
	VPADDQ Z15, Z17, K1, Z17; \
	CSUB(Z17, Z30, Z18); \
	CSUB(Z17, Z31, Z18); \
	VMOVDQU64 Z17, outm

// FINDROP: both outputs dropped into the out row, sp at DI + SI and out at
// DI + R8; nInv and nInvRoot carry p^-1.
#define FINDROP \
	DROP(Z6, Z0, Z1, (DI)(SI*1), (DI)(R8*1)); \
	DROP(Z7, Z2, Z3, (DX)(SI*1), (DX)(R8*1))

// func inverseNTT(a *uint64, n int, w, wp *uint64, q, nInv, nInvShoup, nInvRoot, nInvRootShoup uint64, c *uint64, reduce uint64, out, sp *uint64, halfP, negPInv, negPInvShoup uint64)
//
// Mirrors ntt.(*Table).InverseLazy, and with sp set
// ntt.(*Table).InverseLazyDrop: the lazy inverse transform, canonical
// output, companions (wp, nInvShoup, nInvRootShoup, negPInvShoup) in 52
// bits. The passes: the register stages — five when log N is even, else
// four — then two stages per pass up to span N/4, and the final stage
// folding N^-1 into its two Shoup multiplies. c[s] is stage s's
// subtraction constant; bit p of reduce makes pass p reduce its sums below
// it. With sp set the final stage drops a limb (DROP): nInv and nInvRoot
// arrive with p^-1 folded in, and the outputs go to out, not a.
TEXT ·inverseNTT(SB), NOSPLIT, $0-128
	MOVQ a+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ wp+24(FP), R9
	MOVQ q+32(FP), BX
	CONSTS(BX)
	MOVQ c+72(FP), R10
	LEAQ shufTab<>(SB), AX
	VMOVDQU64 0x80(AX), Z26
	VMOVDQU64 0xc0(AX), Z25
	VPBROADCASTQ 0(R10), Z24
	VPBROADCASTQ 8(R10), Z23
	VPBROADCASTQ 16(R10), Z22
	VPBROADCASTQ 24(R10), Z21
	VPBROADCASTQ 32(R10), Z20
	MOVQ reduce+80(FP), SI
	ANDQ $1, SI            // the head's reduce bit
	BSFQ CX, AX
	TESTQ $1, AX
	JNZ  invHeadSized
	ORQ  $2, SI            // five stages

invHeadSized:
	SHLQ $2, CX            // N/2 words in bytes
	LEAQ (R8)(CX*1), BX    // N/2
	LEAQ (R9)(CX*1), DX
	SHRQ $1, CX
	LEAQ (R8)(CX*1), R14   // N/4
	LEAQ (R9)(CX*1), R15
	SHRQ $1, CX
	LEAQ (R8)(CX*1), R12   // N/8
	LEAQ (R9)(CX*1), R13
	SHRQ $1, CX
	LEAQ (R8)(CX*1), R10   // N/16
	LEAQ (R9)(CX*1), R11
	SHRQ $1, CX
	ADDQ CX, R8            // N/32
	ADDQ CX, R9
	SHRQ $3, CX            // N/32 iterations
	XORQ AX, AX
	CMPQ SI, $1
	JEQ  invHead4Red
	CMPQ SI, $2
	JEQ  invHead5Lazy
	CMPQ SI, $3
	JEQ  invHead5Red
	INVHEAD(invHead4LazyLoop, NORED3, NOINV16)
	JMP  invMiddle

invHead4Red:
	INVHEAD(invHead4RedLoop, GSRED, NOINV16)
	JMP  invMiddle

invHead5Lazy:
	INVHEAD(invHead5LazyLoop, NORED3, INV16)
	JMP  invMiddle

invHead5Red:
	INVHEAD(invHead5RedLoop, GSRED, INV16)

invMiddle:
	MOVQ a+0(FP), DI
	MOVQ n+8(FP), R14
	MOVQ w+16(FP), R8
	MOVQ wp+24(FP), R9
	SUBQ R8, R9            // wp − w
	MOVQ c+72(FP), R10
	MOVQ reduce+80(FP), R15
	SHRQ $1, R15
	MOVQ R14, R11
	SHRQ $5, R11           // blocks of the span-16 stage
	MOVQ $128, R12         // span 16 in bytes
	ADDQ $32, R10          // &c[4]
	BSFQ R14, AX
	TESTQ $1, AX
	JNZ  invPairs
	SHRQ $1, R11           // the head ran span 16 too
	SHLQ $1, R12
	ADDQ $8, R10

invPairs:
	CMPQ R11, $4           // the pass must end before span N/2
	JLT  invFinal
	LEAQ (R12)(R12*2), R13
	VPBROADCASTQ (R10), Z21
	VPBROADCASTQ 8(R10), Z22
	ADDQ $16, R10
	TESTQ $1, R15
	JNZ  invR4Red
	INVR4(invR4LazyBlock, invR4LazyInner, NORED3)
	JMP  invR4Done

invR4Red:
	INVR4(invR4RedBlock, invR4RedInner, GSRED)

invR4Done:
	SHRQ $1, R15
	SHRQ $2, R11
	SHLQ $2, R12
	JMP  invPairs

invFinal:
	VPBROADCASTQ (R10), Z21
	VPBROADCASTQ nInv+40(FP), Z0
	VPBROADCASTQ nInvShoup+48(FP), Z1
	VPBROADCASTQ nInvRoot+56(FP), Z2
	VPBROADCASTQ nInvRootShoup+64(FP), Z3
	LEAQ (DI)(R14*4), DX   // hi = a + N/2
	MOVQ DX, CX
	CMPQ sp+96(FP), $0
	JNE  invDrop
	INVLAST(invLast, FINPLAIN)
	VZEROUPPER
	RET

invDrop:
	VPBROADCASTQ halfP+104(FP), Z14
	VPBROADCASTQ negPInv+112(FP), Z12
	VPBROADCASTQ negPInvShoup+120(FP), Z13
	MOVQ $1, AX
	VPBROADCASTQ AX, Z15
	MOVQ sp+96(FP), SI
	SUBQ DI, SI            // sp − a
	MOVQ out+88(FP), R8
	SUBQ DI, R8            // out − a
	INVLAST(invDropLast, FINDROP)
	VZEROUPPER
	RET

// MONT52: out = x·y·2^-52 mod q, canonical, for x, y < 2^52 with x·y <
// 2^52·q, qinv = q^-1 mod 2^52 in Z27: with lo + hi·2^52 = x·y and m =
// lo·qinv mod 2^52, x·y − m·q is (hi − ⌊m·q/2^52⌋)·2^52 exactly, and
// hi − ⌊m·q/2^52⌋ lies in (−q, q). t and u are scratch; out, t and u must
// differ from x and y.
#define MONT52(x, y, out, t, u) \
	VPXORQ t, t, t; \
	VPMADD52LUQ y, x, t; \
	VPXORQ out, out, out; \
	VPMADD52HUQ y, x, out; \
	VPXORQ u, u, u; \
	VPMADD52LUQ Z27, t, u; \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z31, u, t; \
	VPSUBQ t, out, out; \
	VPADDQ Z31, out, t; \
	VPMINUQ t, out, out

// func monomialSplit(sum, diff, e, o, m *uint64, n, run int, q, qinv uint64)
//
// Mirrors the row loop of ring.(*Ring).MonomialSplitNTT for runs of run
// slots (a multiple of 8 dividing n): per run, broadcast w = m[k], the
// run's value in Montgomery form, once; then per slot y = o·w·2^-52 mod q
// (MONT52, canonical); diff = Sub(e, y); sum = Add(e, y).
TEXT ·monomialSplit(SB), NOSPLIT, $0-72
	MOVQ sum+0(FP), DI
	MOVQ diff+8(FP), SI
	MOVQ e+16(FP), R8
	MOVQ o+24(FP), R9
	MOVQ m+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ run+48(FP), R12
	MOVQ q+56(FP), BX
	CONSTS(BX)
	VPBROADCASTQ qinv+64(FP), Z27
	XORQ AX, AX

splitRun:
	VPBROADCASTQ (R10), Z1      // w
	ADDQ $8, R10
	LEAQ (AX)(R12*1), DX        // end of the run

splitLoop:
	VMOVDQU64 (R9)(AX*8), Z0
	MONT52(Z0, Z1, Z3, Z4, Z2)  // y
	VMOVDQU64 (R8)(AX*8), Z5    // x
	VPSUBQ Z3, Z5, Z6           // x-y, wrapped when x < y
	VPADDQ Z31, Z6, Z7
	VPMINUQ Z7, Z6, Z6
	VPADDQ Z3, Z5, Z5
	CSUB(Z5, Z31, Z4)
	VMOVDQU64 Z6, (SI)(AX*8)
	VMOVDQU64 Z5, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  splitLoop
	CMPQ AX, CX
	JLT  splitRun
	VZEROUPPER
	RET

// DOTPROD: Z6 = x[AX:]·yA, a Montgomery product, and Z20/Z21 += the low
// and high 52-bit halves of x[AX:]·yB, operands at R8..R10 in argument
// order; x is read once for both. A lane's low sum stays below 2^64 for
// 2^12 products, its high sum (each half below 2^48 for q < 2^50) far
// longer.
#define DOTPROD \
	VMOVDQU64 (R8)(AX*8), Z0; \
	VMOVDQU64 (R9)(AX*8), Z1; \
	VPMADD52LUQ Z1, Z0, Z20; \
	VPMADD52HUQ Z1, Z0, Z21; \
	VMOVDQU64 (R10)(AX*8), Z2; \
	MONT52(Z0, Z2, Z6, Z7, Z8)

// func mulMontDot(out, x, yB, yA *uint64, n int, q, qinv uint64, add bool, sums *[16]uint64)
//
// Mirrors the row loops of ring.(*Ring).MulCoeffMontDot: out (+)=
// x·yA·2^-52, canonical, and sums[k] / sums[8+k] = Σ over lane k of the
// low / high 52-bit halves of x·yB, for n ≤ 2^15. Nothing of the yB
// product is reduced or stored.
TEXT ·mulMontDot(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), R8
	MOVQ yB+16(FP), R9
	MOVQ yA+24(FP), R10
	MOVQ n+32(FP), CX
	MOVQ q+40(FP), BX
	CONSTS(BX)
	VPBROADCASTQ qinv+48(FP), Z27
	MOVQ sums+64(FP), R11
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	XORQ AX, AX
	CMPB add+56(FP), $0
	JNE  dotAddLoop

dotLoop:
	DOTPROD
	VMOVDQU64 Z6, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  dotLoop
	JMP  dotDone

dotAddLoop:
	DOTPROD
	VPADDQ (DI)(AX*8), Z6, Z6   // < 2q
	CSUB(Z6, Z31, Z7)
	VMOVDQU64 Z6, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  dotAddLoop

dotDone:
	VMOVDQU64 Z20, (R11)
	VMOVDQU64 Z21, 64(R11)
	VZEROUPPER
	RET

// func mulMontPair(out, a0, b0, a1, b1 *uint64, n int, q, qinv uint64)
//
// Mirrors the row loop of ring.(*Ring).MulCoeffMontPairAdd:
// out += (a0·b0 + a1·b1)·2^-52, canonical, with b0/b1 in Montgomery form.
// The two 104-bit products are summed wide and reduced once, MONT52's
// argument on the sum: lo = lo0+lo1 < 2^53 carries lo>>52 into hi, and m =
// lo·qinv mod 2^52 reads only lo's low 52 bits (the multiplier ignores the
// rest, so lo needs no mask). For q < 2^50 the sum is below 2q² < q·2^51,
// so hi − ⌊m·q/2^52⌋ lies in (−q, q/2).
TEXT ·mulMontPair(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ b0+16(FP), R9
	MOVQ a1+24(FP), R10
	MOVQ b1+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ q+48(FP), BX
	CONSTS(BX)
	VPBROADCASTQ qinv+56(FP), Z27
	XORQ AX, AX

pairLoop:
	VMOVDQU64 (R8)(AX*8), Z0
	VMOVDQU64 (R9)(AX*8), Z1
	VMOVDQU64 (R10)(AX*8), Z2
	VMOVDQU64 (R11)(AX*8), Z3
	VPXORQ Z4, Z4, Z4
	VPMADD52LUQ Z1, Z0, Z4
	VPXORQ Z5, Z5, Z5
	VPMADD52HUQ Z1, Z0, Z5
	VPMADD52LUQ Z3, Z2, Z4      // lo < 2^53
	VPMADD52HUQ Z3, Z2, Z5
	VPSRLQ $52, Z4, Z6
	VPADDQ Z6, Z5, Z5           // hi += lo>>52
	VPXORQ Z6, Z6, Z6
	VPMADD52LUQ Z27, Z4, Z6     // m
	VPXORQ Z7, Z7, Z7
	VPMADD52HUQ Z31, Z6, Z7     // ⌊m·q/2^52⌋
	VPSUBQ Z7, Z5, Z5           // in (−q, q/2)
	VPADDQ Z31, Z5, Z7
	VPMINUQ Z7, Z5, Z5          // canonical
	VPADDQ (DI)(AX*8), Z5, Z5   // < 2q
	CSUB(Z5, Z31, Z7)
	VMOVDQU64 Z5, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  pairLoop
	VZEROUPPER
	RET

// func mulMont(out, a, b *uint64, n int, q, qinv uint64, add bool)
//
// Mirrors the row loop of ring.(*Ring).MulCoeffMont: out (+)= a·b·2^-52,
// canonical (MONT52, then one conditional subtraction when add is set),
// with b in Montgomery form. out may alias a.
TEXT ·mulMont(SB), NOSPLIT, $0-49
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Z31
	VPBROADCASTQ qinv+40(FP), Z27
	XORQ AX, AX
	CMPB add+48(FP), $0
	JNE  montAddLoop

montLoop:
	VMOVDQU64 (R8)(AX*8), Z0
	VMOVDQU64 (R9)(AX*8), Z1
	MONT52(Z0, Z1, Z2, Z3, Z4)
	VMOVDQU64 Z2, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  montLoop
	VZEROUPPER
	RET

montAddLoop:
	VMOVDQU64 (R8)(AX*8), Z0
	VMOVDQU64 (R9)(AX*8), Z1
	MONT52(Z0, Z1, Z2, Z3, Z4)
	VPADDQ (DI)(AX*8), Z2, Z2   // < 2q
	CSUB(Z2, Z31, Z3)
	VMOVDQU64 Z2, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  montAddLoop
	VZEROUPPER
	RET

// MULCONST: Z1 = lift(Z0)·c·2^-52, canonical, with c (Montgomery form) in
// Z26: the lift adds negAdd (Z22) to a word above half (Z23), a no-op when
// negAdd is 0. Clobbers Z2, Z3 and K2.
#define MULCONST \
	VPCMPUQ $6, Z23, Z0, K2; \
	VPADDQ Z22, Z0, K2, Z0; \
	MONT52(Z0, Z26, Z1, Z2, Z3)

// CONSTIN: Z0 = a[AX:AX+8], or on to done when a word of it is at or
// above the bound (Z24). Clobbers K1.
#define CONSTIN(done) \
	VMOVDQU64 (SI)(AX*8), Z0; \
	VPCMPUQ $5, Z24, Z0, K1; \
	KORTESTW K1, K1; \
	JNZ  done

// func mulMontConst(out, a *uint64, n int, q, qinv, c uint64, add bool, half, negAdd, bound uint64) int
//
// Mirrors the row loop of ring.(*Ring).MulScalarRow: out (+)= lift(a)·c,
// canonical, c in Montgomery form, where lift adds negAdd to a word above
// half — BFV's centred lift of a residue mod t, or nothing when negAdd is
// 0. It runs block by block from the front and stops before the first
// block holding a word at or above bound, writing nothing of it; it
// returns the words written.
TEXT ·mulMontConst(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ q+24(FP), Z31
	VPBROADCASTQ qinv+32(FP), Z27
	VPBROADCASTQ c+40(FP), Z26
	VPBROADCASTQ half+56(FP), Z23
	VPBROADCASTQ negAdd+64(FP), Z22
	VPBROADCASTQ bound+72(FP), Z24
	XORQ AX, AX
	CMPB add+48(FP), $0
	JNE  constAddLoop

constLoop:
	CMPQ AX, CX
	JGE  constDone
	CONSTIN(constDone)
	MULCONST
	VMOVDQU64 Z1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  constLoop

constAddLoop:
	CMPQ AX, CX
	JGE  constDone
	CONSTIN(constDone)
	MULCONST
	VPADDQ (DI)(AX*8), Z1, Z1   // < 2q
	CSUB(Z1, Z31, Z2)
	VMOVDQU64 Z1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  constAddLoop

constDone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// The word order of a reversed 8-word block.
DATA revTab<>+0x00(SB)/8, $7
DATA revTab<>+0x08(SB)/8, $6
DATA revTab<>+0x10(SB)/8, $5
DATA revTab<>+0x18(SB)/8, $4
DATA revTab<>+0x20(SB)/8, $3
DATA revTab<>+0x28(SB)/8, $2
DATA revTab<>+0x30(SB)/8, $1
DATA revTab<>+0x38(SB)/8, $0
GLOBL revTab<>(SB), RODATA|NOPTR, $0x40

// func encodeRow(out, src *uint64, n int, t, tinv, scale uint64) int
//
// Mirrors the row loop of bfv.Params.EncodeRowInto: out[j] = (t −
// src[n−1−j])·scale mod t, canonical, with scale in Montgomery form mod t
// (MONT52 with q = t, qinv = tinv): block k of out is the block of src
// that ends at word n−8k, reversed by one VPERMQ. It stops before the
// first block holding an entry at or above t, writing nothing of it, and
// returns the words written.
TEXT ·encodeRow(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ t+24(FP), Z31
	VPBROADCASTQ tinv+32(FP), Z27
	VPBROADCASTQ scale+40(FP), Z26
	VMOVDQU64 revTab<>(SB), Z25
	LEAQ -64(SI)(CX*8), SI      // src's last block
	XORQ AX, AX

encodeLoop:
	CMPQ AX, CX
	JGE  encodeDone
	VPERMQ (SI), Z25, Z0        // the block, reversed
	VPCMPUQ $5, Z31, Z0, K1     // an entry ≥ t
	KORTESTW K1, K1
	JNZ  encodeDone
	VPSUBQ Z0, Z31, Z0          // t − x, in (0, t]
	MONT52(Z0, Z26, Z1, Z2, Z3)
	VMOVDQU64 Z1, (DI)(AX*8)
	SUBQ $64, SI
	ADDQ $8, AX
	JMP  encodeLoop

encodeDone:
	MOVQ AX, ret+48(FP)
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

// AVX2 lockstep SVMC sweep kernel. See svmc_simd_amd64.go for the
// contract. Everything here is either exact integer arithmetic or an
// IEEE-754 vector op whose 4-lane rounding matches the scalar op bit
// for bit; FMA is deliberately absent (it would contract mul+add pairs
// and change the rounding). Constants come from ·svmcSIMDTab — each
// replicated across a 32-byte row so VEX memory operands can use them
// directly (VEX encodings carry no alignment requirement). Table rows:
//   +0 mask32  +32 magicHi  +64 magicLo  +96 magicSub(2⁸⁴+2⁵²)
//   +128 2⁻⁵³  +160 0.5  +192 0.25  +224 absMask  +256 signBit
//   +288+32k sinPiCoef[k] (k ≤ 6)   +512+32k cosPiCoef[k] (k ≤ 7)
//   +768 expGridStep  +800 expGridMax (int64)  +832 laneBit (63−l)  +864 laneBit2 (59−l)

#include "textflag.h"
#include "lockstep_simd.h"

// SINCOSPI computes u = (x>>11)·2⁻⁵³ and (sin πu, cos πu) for one
// 4-lane half, mirroring sinCosPi in sincospi.go operation for
// operation. X holds the raw angle draw; SN/CS receive the results;
// the remaining six registers are clobbered.
//
// The u64→f64 conversion is the two-part magic-number trick: with
// v = x>>11 < 2⁵³ split as hi21·2³² + lo32, OR-ing hi21 into the
// mantissa of 2⁸⁴ and lo32 into the mantissa of 2⁵² gives the doubles
// thi = 2⁸⁴ + hi21·2³² and tlo = 2⁵² + lo32; then
// (thi − (2⁸⁴+2⁵²)) + tlo reconstructs v with both steps exact (every
// intermediate is below 2⁵³ in magnitude and a multiple of a common
// power of two), so it equals Go's exact float64(v) conversion, and
// the final ·2⁻⁵³ is an exact power-of-two scale.
//
// The folds t1 = ½−|u−½| and t2 = ¼−|t1−¼|, the Estrin-grouped
// polynomials, the sin↔cos swap keyed on the sign of q = ¼−t1
// (VBLENDVPD reads only the sign bit — the scalar code's
// -(bits(q)>>63) mask), and the cosine sign flip by the sign bit of
// ½−u replicate the scalar expression tree exactly; only commutative
// operand order within single adds differs, which cannot change
// rounding. Sequence (sinQuarter then cosQuarter, both over zz = t2²,
// z4 = zz², z8 = z4²):
//   sin = t2·(((S0+S1·zz) + z4·(S2+S3·zz)) + z8·((S4+S5·zz) + z4·S6))
//   cos = ((K0+K1·zz) + z4·(K2+K3·zz)) + z8·((K4+K5·zz) + z4·(K6+K7·zz))
#define SINCOSPI(X, SN, CS, Q, HU, T2, ZZ, Z4, Z8, T0) \
	VPSRLQ $11, X, T0                      \
	VPSRLQ $32, T0, ZZ                     \
	VPAND  ·svmcSIMDTab+0(SB), T0, T2      \
	VPOR   ·svmcSIMDTab+32(SB), ZZ, ZZ     \
	VPOR   ·svmcSIMDTab+64(SB), T2, T2     \
	VSUBPD ·svmcSIMDTab+96(SB), ZZ, ZZ     \
	VADDPD T2, ZZ, T0                      \
	VMULPD ·svmcSIMDTab+128(SB), T0, T0    \
	VMOVUPD ·svmcSIMDTab+160(SB), Z4       \
	VMOVUPD ·svmcSIMDTab+192(SB), Z8       \
	VSUBPD T0, Z4, HU                      \
	VSUBPD Z4, T0, ZZ                      \
	VANDPD ·svmcSIMDTab+224(SB), ZZ, ZZ    \
	VSUBPD ZZ, Z4, T2                      \
	VSUBPD T2, Z8, Q                       \
	VSUBPD Z8, T2, ZZ                      \
	VANDPD ·svmcSIMDTab+224(SB), ZZ, ZZ    \
	VSUBPD ZZ, Z8, T2                      \
	VMULPD T2, T2, ZZ                      \
	VMULPD ZZ, ZZ, Z4                      \
	VMULPD Z4, Z4, Z8                      \
	VMULPD ·svmcSIMDTab+320(SB), ZZ, SN    \
	VADDPD ·svmcSIMDTab+288(SB), SN, SN    \
	VMULPD ·svmcSIMDTab+384(SB), ZZ, T0    \
	VADDPD ·svmcSIMDTab+352(SB), T0, T0    \
	VMULPD Z4, T0, T0                      \
	VADDPD T0, SN, SN                      \
	VMULPD ·svmcSIMDTab+448(SB), ZZ, T0    \
	VADDPD ·svmcSIMDTab+416(SB), T0, T0    \
	VMULPD ·svmcSIMDTab+480(SB), Z4, CS    \
	VADDPD CS, T0, T0                      \
	VMULPD Z8, T0, T0                      \
	VADDPD T0, SN, SN                      \
	VMULPD T2, SN, SN                      \
	VMULPD ·svmcSIMDTab+544(SB), ZZ, CS    \
	VADDPD ·svmcSIMDTab+512(SB), CS, CS    \
	VMULPD ·svmcSIMDTab+608(SB), ZZ, T0    \
	VADDPD ·svmcSIMDTab+576(SB), T0, T0    \
	VMULPD Z4, T0, T0                      \
	VADDPD T0, CS, CS                      \
	VMULPD ·svmcSIMDTab+672(SB), ZZ, T0    \
	VADDPD ·svmcSIMDTab+640(SB), T0, T0    \
	VMULPD ·svmcSIMDTab+736(SB), ZZ, T2    \
	VADDPD ·svmcSIMDTab+704(SB), T2, T2    \
	VMULPD Z4, T2, T2                      \
	VADDPD T2, T0, T0                      \
	VMULPD Z8, T0, T0                      \
	VADDPD T0, CS, CS                      \
	VBLENDVPD Q, CS, SN, T0                \
	VBLENDVPD Q, SN, CS, CS                \
	VMOVAPD T0, SN                         \
	VANDPD ·svmcSIMDTab+256(SB), HU, HU    \
	VXORPD HU, CS, CS

// SCORE scores the proposal for one 4-lane half at byte offset OFF of
// every per-lane array and hands its energy delta to VERDICT
// (lockstep_simd.h). Inputs, all set up by the main body: CX the args
// struct (read-only here; sn/cs/fld pointers come from it), R8–R11 the
// state arrays (holding post-angle-draw states), R12 idx, R13 rot,
// R14 lanoff, R15 bounds, DX dE, SI u, and the stack frame holds
// na2 (0), b2 (32), beta (64) broadcast 4-wide. DI/BX accumulate the
// acc/ex bitmasks. AX and Y0–Y8/X2 are clobbered; DX is borrowed for the
// fld pointer and reloaded. With the operand convention
// "op A, B, C ⇒ C = B op A":
//
//  1. For each lane l of the half, g = lanoff + idx is its slot: the
//     field is fld[g] and the 16-byte (z, sin θ) pair is rot[2g:2g+2],
//     which never straddles a cache line. The pairs of lanes (l, l+2)
//     and (l+1, l+3) load into the two 128-bit halves of a YMM register
//     and two unpacks transpose them into zv = z and sT = sin θ; the
//     fields load as scalars into fv the same way. Plain loads are on
//     the chain to the verdict for less time than gathers would be.
//  2. dE = na2·(sn−sT) + (b2·(cs−zv))·fv into Y6, the scalar
//     expression tree op for op.
#define SCORE(OFF, SHIFT) \
	MOVQ 544(CX), DX                        \
	MOVQ OFF(R12), AX                       \
	ADDQ OFF(R14), AX                       \
	VMOVSD (DX)(AX*8), X5                   \
	SHLQ $1, AX                             \
	VMOVUPD (R13)(AX*8), X1                 \
	MOVQ OFF+16(R12), AX                    \
	ADDQ OFF+16(R14), AX                    \
	VMOVSD (DX)(AX*8), X7                   \
	SHLQ $1, AX                             \
	VINSERTF128 $1, (R13)(AX*8), Y1, Y1     \
	MOVQ OFF+8(R12), AX                     \
	ADDQ OFF+8(R14), AX                     \
	VMOVHPD (DX)(AX*8), X5, X5              \
	SHLQ $1, AX                             \
	VMOVUPD (R13)(AX*8), X2                 \
	MOVQ OFF+24(R12), AX                    \
	ADDQ OFF+24(R14), AX                    \
	VMOVHPD (DX)(AX*8), X7, X7              \
	SHLQ $1, AX                             \
	VINSERTF128 $1, (R13)(AX*8), Y2, Y2     \
	VINSERTF128 $1, X7, Y5, Y5              \
	MOVQ 72(CX), DX                         \
	VUNPCKLPD Y2, Y1, Y3                    \
	VUNPCKHPD Y2, Y1, Y4                    \
	MOVQ 40(CX), AX                         \
	VMOVUPD OFF(AX), Y6                     \
	MOVQ 48(CX), AX                         \
	VMOVUPD OFF(AX), Y7                     \
	VSUBPD Y4, Y6, Y6                       \
	VMULPD (SP), Y6, Y6                     \
	VSUBPD Y3, Y7, Y7                       \
	VMULPD 32(SP), Y7, Y7                   \
	VMULPD Y5, Y7, Y7                       \
	VADDPD Y7, Y6, Y6                       \
	VERDICT(OFF, SHIFT)

// SCOREREGS loads the registers SCORE and VERDICT read (see SCORE).
#define SCOREREGS \
	MOVQ 56(CX), R13  \
	MOVQ 64(CX), R14  \
	MOVQ 144(CX), R15 \
	MOVQ 72(CX), DX   \
	MOVQ 80(CX), SI

// CHUNK runs the proposal step through the verdict for the 8-lane chunk
// whose halves sit at byte offsets OA and OB of every per-lane array,
// ORing the verdict bits in at SA and SB. R8–R11 hold the state arrays.
// Draw 1 is the proposal index: until the Lemire check clears, nothing
// may be stored — a chunk that rejects jumps to REJ with its memory
// untouched. Draw 2 is the proposal angle; the states are stored after
// it, final for downhill lanes (VERDICT re-advances and re-stores the
// lanes whose uphill test consumes a third draw).
#define CHUNK(OA, OB, SA, SB, REJ) \
	VMOVDQU OA(R8), Y0                       \
	VMOVDQU OB(R8), Y4                       \
	VMOVDQU OA(R9), Y1                       \
	VMOVDQU OB(R9), Y5                       \
	VMOVDQU OA(R10), Y2                      \
	VMOVDQU OB(R10), Y6                      \
	VMOVDQU OA(R11), Y3                      \
	VMOVDQU OB(R11), Y7                      \
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)    \
	XOSHIRO(Y4, Y5, Y6, Y7, Y9, Y10, Y11)    \
	BOUND(Y8, Y12, Y13, Y8, Y14, Y10, Y11)   \
	BOUND(Y9, Y12, Y13, Y9, Y15, Y10, Y11)   \
	VPOR   Y15, Y14, Y14                     \
	VPTEST Y14, Y14                          \
	JNZ    REJ                               \
	MOVQ 32(CX), R12                         \
	VMOVDQU Y8, OA(R12)                      \
	VMOVDQU Y9, OB(R12)                      \
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)    \
	XOSHIRO(Y4, Y5, Y6, Y7, Y9, Y10, Y11)    \
	VMOVDQU Y0, OA(R8)                       \
	VMOVDQU Y4, OB(R8)                       \
	VMOVDQU Y1, OA(R9)                       \
	VMOVDQU Y5, OB(R9)                       \
	VMOVDQU Y2, OA(R10)                      \
	VMOVDQU Y6, OB(R10)                      \
	VMOVDQU Y3, OA(R11)                      \
	VMOVDQU Y7, OB(R11)                      \
	MOVQ 40(CX), AX                          \
	MOVQ 48(CX), DX                          \
	SINCOSPI(Y8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10) \
	VMOVUPD Y0, OA(AX)                       \
	VMOVUPD Y1, OA(DX)                       \
	SINCOSPI(Y9, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10) \
	VMOVUPD Y0, OB(AX)                       \
	VMOVUPD Y1, OB(DX)                       \
	SCOREREGS                                \
	SCORE(OA, SA)                            \
	SCORE(OB, SB)

// HALF is CHUNK restricted to the half at OA: a chunk whose live lanes
// all sit in its first half runs that half alone, and the padding lanes
// of its second half are neither advanced nor scored, since nothing
// reads them.
#define HALF(OA, SA, REJ) \
	VMOVDQU OA(R8), Y0                       \
	VMOVDQU OA(R9), Y1                       \
	VMOVDQU OA(R10), Y2                      \
	VMOVDQU OA(R11), Y3                      \
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)    \
	BOUND(Y8, Y12, Y13, Y8, Y14, Y10, Y11)   \
	VPTEST Y14, Y14                          \
	JNZ    REJ                               \
	MOVQ 32(CX), R12                         \
	VMOVDQU Y8, OA(R12)                      \
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)    \
	VMOVDQU Y0, OA(R8)                       \
	VMOVDQU Y1, OA(R9)                       \
	VMOVDQU Y2, OA(R10)                      \
	VMOVDQU Y3, OA(R11)                      \
	MOVQ 40(CX), AX                          \
	MOVQ 48(CX), DX                          \
	SINCOSPI(Y8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10) \
	VMOVUPD Y0, OA(AX)                       \
	VMOVUPD Y1, OA(DX)                       \
	SCOREREGS                                \
	SCORE(OA, SA)

// DENSEQUAD is one quad of APPLY's dense-row update, the quad at byte
// offset OFF from SI·8 past R15 (weights) and R11 (fields): the fields
// take field + w·dz (Y1 = dz), then VBLENDVPD restores every lane whose
// mask bit the shift counts in SH bring to the sign bit of Y2's copy.
// Clobbers T, U and V.
#define DENSEQUAD(OFF, SH, T, U, V) \
	VMULPD OFF(R15)(SI*8), Y1, U  \
	VMOVUPD OFF(R11)(SI*8), V     \
	VADDPD U, V, U                \
	VPSLLVQ SH, Y2, T             \
	VBLENDVPD T, V, U, U          \
	VMOVUPD U, OFF(R11)(SI*8)

// APPLY applies the decided accepts of the lanes in DI, in lane order:
// the rotor pair at rot[2g], g = lanoff + idx, takes the proposal's
// (cos, sin), dz = nz − z is added to the lane's fields along row idx of
// its problem, and the lane's accept count is bumped. Each field takes
// one field + w·dz, the Go apply's operations; the fields of a row are
// distinct, so their order cannot matter. A lane with a dense row table
// (a.dw, a.dm) updates all np fields of its block a quad at a time with
// VMULPD/VADDPD, which round like the scalar ops, and VBLENDVPD puts
// back the old field of every column the row's mask marks (the spin
// itself, a dropped zero coupling, the padding), so such a field is
// stored unchanged, −0 included. The mask bit of lane l's column reaches
// its sign bit by a shift of 63−l (or 59−l in the second quad of a
// pair), and the mask moves on by eight bits a pair of quads; an odd
// quad count runs one quad first, and SI counts up from −np to 0. A
// lane without a table walks its CSR row column by column. The path is
// the lane's own, so lanes of one group may take different paths.
// LOOP … DONE name the expansion's labels; it falls through at DONE.
// Needs CX; clobbers AX, BX, DX, SI, DI, R8–R15 and Y0–Y9.
#define APPLY(LOOP, ROW, DENSE, QUAD, DONE) \
	MOVQ 40(CX), R8              \
	MOVQ 48(CX), R9              \
	MOVQ 32(CX), R12             \
	MOVQ 56(CX), R13             \
	MOVQ 64(CX), R14             \
LOOP:                                \
	TESTL DI, DI                 \
	JZ    DONE                   \
	BSFL  DI, AX                 \
	BTRL  AX, DI                 \
	MOVQ  152(CX), DX            \
	INCQ  (DX)(AX*8)             \
	MOVQ  (R12)(AX*8), R10       \
	MOVQ  (R14)(AX*8), R11       \
	LEAQ  (R11)(R10*1), BX       \
	SHLQ  $1, BX                 \
	VMOVSD (R9)(AX*8), X0        \
	VSUBSD (R13)(BX*8), X0, X1   \
	VMOVSD X0, (R13)(BX*8)       \
	VMOVSD (R8)(AX*8), X0        \
	VMOVSD X0, 8(R13)(BX*8)      \
	MOVQ  544(CX), BX            \
	LEAQ  (BX)(R11*8), R11       \
	MOVQ  552(CX)(AX*8), R15     \
	TESTQ R15, R15               \
	JNZ   DENSE                  \
	MOVQ  160(CX)(AX*8), DX      \
	MOVLQSX (DX)(R10*4), SI      \
	MOVLQSX 4(DX)(R10*4), DX     \
	CMPQ  SI, DX                 \
	JGE   LOOP                   \
	MOVQ  416(CX)(AX*8), R15     \
	MOVQ  288(CX)(AX*8), R10     \
ROW:                                 \
	MOVLQSX (R10)(SI*4), BX      \
	VMULSD (R15)(SI*8), X1, X0   \
	VADDSD (R11)(BX*8), X0, X0   \
	VMOVSD X0, (R11)(BX*8)       \
	INCQ  SI                     \
	CMPQ  SI, DX                 \
	JLT   ROW                    \
	JMP   LOOP                   \
DENSE:                               \
	MOVQ  680(CX)(AX*8), DX      \
	VPBROADCASTQ (DX)(R10*8), Y2 \
	MOVQ  88(CX), SI             \
	ADDQ  $3, SI                 \
	ANDQ  $~3, SI                \
	IMULQ SI, R10                \
	LEAQ  (R15)(R10*8), R15      \
	LEAQ  (R15)(SI*8), R15       \
	LEAQ  (R11)(SI*8), R11       \
	NEGQ  SI                     \
	VBROADCASTSD X1, Y1          \
	VMOVDQU ·svmcSIMDTab+832(SB), Y3 \
	VMOVDQU ·svmcSIMDTab+864(SB), Y4 \
	TESTQ $4, SI                 \
	JZ    QUAD                   \
	DENSEQUAD(0, Y3, Y7, Y8, Y9) \
	VPSRLQ $4, Y2, Y2            \
	ADDQ  $4, SI                 \
	JZ    LOOP                   \
QUAD:                                \
	DENSEQUAD(0, Y3, Y7, Y8, Y9) \
	DENSEQUAD(32, Y4, Y5, Y6, Y0) \
	VPSRLQ $8, Y2, Y2            \
	ADDQ  $8, SI                 \
	JNZ   QUAD                   \
	JMP   LOOP                   \
DONE:

// APPLIED turns the verdict bits in DI (acc) and BX (ex) into the lanes
// to apply, acc ∧ ¬ex ∧ live, in DI. Clobbers AX and BX.
#define APPLIED \
	NOTL    BX           \
	ANDL    BX, DI       \
	MOVWLZX 138(CX), AX  \
	ANDL    AX, DI

// func svmcStepx8(a *svmcStepArgs) bool
//
// The svmcStepArgs field offsets (+0 rs0 … +680 dm) are a hard contract
// with the struct definition in svmc_batch.go; CX holds the struct base
// for the whole body. One call runs proposal steps a.k, a.k+1, … of a
// sweep over two 8-lane chunks (lanes 0–7 and 8–15); a chunk with no
// live lane is skipped, and a chunk whose live lanes all sit in its
// first half runs that half alone. Every chunk is drawn, scored and
// decided before any of its accepts is applied, and the chunks' applies
// are staggered: step k runs chunk 0's chain, then chunk 1's apply of
// step k−1, then chunk 1's chain, then chunk 0's apply of step k. The
// lanes are independent, so the order is invisible in the results, but
// the apply's data-dependent branches no longer flush the other chunk's
// draw → trig → score → verdict chain: it is older than them and keeps
// running. Y12/Y13 (nb, negnb) and the frame's na2/b2/beta broadcasts
// stay loaded across steps; the frame also holds chunk 1's pending
// apply mask (96), chunk 0's (104) and the step's undecided lanes (112).
TEXT ·svmcStepx8(SB), NOSPLIT, $128-9
	MOVQ a+0(FP), CX

	VPBROADCASTQ 88(CX), Y12 // nb
	VPBROADCASTQ 96(CX), Y13 // negnb
	VPXOR ·svmcSIMDTab+256(SB), Y13, Y13 // bias negnb for the signed compare

	// Broadcast the scoring scalars to the frame; SCORE reads them as
	// VEX memory operands.
	VPBROADCASTQ 104(CX), Y10 // na2
	VMOVDQU Y10, (SP)
	VPBROADCASTQ 112(CX), Y10 // b2
	VMOVDQU Y10, 32(SP)
	VPBROADCASTQ 120(CX), Y10 // beta
	VMOVDQU Y10, 64(SP)
	MOVQ $0, 96(SP)          // no chunk-1 apply pending

step:
	MOVQ 0(CX), R8   // rs0
	MOVQ 8(CX), R9   // rs1
	MOVQ 16(CX), R10 // rs2
	MOVQ 24(CX), R11 // rs3
	XORL DI, DI      // acc mask
	XORL BX, BX      // ex mask
	TESTB $0xF0, 138(CX) // any live lane in lanes 4–7?
	JZ    half0
	CHUNK(0, 32, 0, 4, reject0)
	JMP   chain0
half0:
	HALF(0, 0, reject0)
chain0:
	MOVQ BX, 112(SP)
	APPLIED
	MOVQ DI, 104(SP)         // chunk 0's lanes to apply at step k

	MOVWLZX 138(CX), AX
	TESTL $0xFF00, AX        // any live lane in lanes 8–15?
	JZ    chain1
	MOVQ 96(SP), DI          // chunk 1's accepts of step k−1
	APPLY(pend, pendrow, penddense, pendquad, pended)
	MOVQ 0(CX), R8
	MOVQ 8(CX), R9
	MOVQ 16(CX), R10
	MOVQ 24(CX), R11
	XORL DI, DI
	XORL BX, BX
	TESTB $0xF0, 139(CX)     // any live lane in lanes 12–15?
	JZ    half1
	CHUNK(64, 96, 8, 12, reject1)
	JMP   scored1
half1:
	HALF(64, 8, reject1)
scored1:
	ORQ  BX, 112(SP)
	APPLIED
	MOVQ DI, 96(SP)          // chunk 1's lanes to apply, after chunk 0's next chain

chain1:
	MOVQ 104(SP), DI
	APPLY(own, ownrow, owndense, ownquad, owned)
	MOVQ 112(SP), AX
	MOVWLZX 138(CX), BX
	ANDL BX, AX
	JNZ  undecided           // an undecided live lane: Go settles it
	MOVQ 128(CX), AX
	INCQ AX
	MOVQ AX, 128(CX)
	CMPQ AX, 88(CX)
	JB   step
	MOVB $1, ret+8(FP)       // the sweep is done
	JMP  drain

undecided:
	MOVW AX, 136(CX)         // exm
	MOVW $2, 140(CX)         // rej: both chunks ran the step
	MOVB $0, ret+8(FP)

drain:
	// Apply chunk 1's pending accepts before returning, so the caller
	// sees every lane at the same step.
	MOVQ 96(SP), DI
drainlanes:
	APPLY(fin, finrow, findense, finquad, fined)
	VZEROUPPER
	RET

reject0:
	// Chunk 0 rejected before storing anything, so chunk 1 has not run
	// the step either; its accepts of step k−1 are still pending.
	MOVW $0, 136(CX)
	MOVW $0, 140(CX)
	MOVB $0, ret+8(FP)
	JMP  drain

reject1:
	// Chunk 1 rejected before storing anything, after applying its
	// accepts of step k−1; chunk 0 ran step k and still applies.
	MOVQ 112(SP), AX
	MOVW AX, 136(CX)         // exm: chunk 0's undecided lanes
	MOVW $1, 140(CX)
	MOVB $0, ret+8(FP)
	MOVQ 104(SP), DI
	JMP  drainlanes

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no
	// XCR0 — the OS must save/restore XMM (bit 1) and YMM (bit 2) state.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.(7,0):EBX bit 5 — AVX2.
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

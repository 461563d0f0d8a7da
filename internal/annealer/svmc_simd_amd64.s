// AVX2 lockstep SVMC proposal kernel. See svmc_simd_amd64.go for the
// contract. Everything here is either exact integer arithmetic or an
// IEEE-754 vector op whose 4-lane rounding matches the scalar op bit
// for bit; FMA is deliberately absent (it would contract mul+add pairs
// and change the rounding). Constants come from ·svmcSIMDTab — each
// replicated across a 32-byte row so VEX memory operands can use them
// directly (VEX encodings carry no alignment requirement). Table rows:
//   +0 mask32  +32 magicHi  +64 magicLo  +96 magicSub(2⁸⁴+2⁵²)
//   +128 2⁻⁵³  +160 0.5  +192 0.25  +224 absMask  +256 signBit
//   +288+32k sinPiCoef[k] (k ≤ 6)   +512+32k cosPiCoef[k] (k ≤ 7)
//   +768 expGridStep  +800 expGridMax (int64)

#include "textflag.h"

// XOSHIRO advances one 4-lane xoshiro256++ state (S0..S3), leaving the
// output x = rotl(s0+s3, 23) + s0 in X, then applying the state update
// (t = s1<<17; s2^=s0; s3^=s1; s1^=s2; s0^=s3; s2^=t; s3 = rotl(s3,45))
// in exactly xoshiroNext's order. T0/T1 are clobbered.
#define XOSHIRO(S0, S1, S2, S3, X, T0, T1) \
	VPADDQ S3, S0, T0  \
	VPSLLQ $23, T0, T1 \
	VPSRLQ $41, T0, T0 \
	VPOR   T1, T0, T0  \
	VPADDQ S0, T0, X   \
	VPSLLQ $17, S1, T0 \
	VPXOR  S0, S2, S2  \
	VPXOR  S1, S3, S3  \
	VPXOR  S2, S1, S1  \
	VPXOR  S3, S0, S0  \
	VPXOR  T0, S2, S2  \
	VPSLLQ $45, S3, T0 \
	VPSRLQ $19, S3, S3 \
	VPOR   T0, S3, S3

// BOUND is the Lemire bounded draw for one 4-lane half: NB holds
// nb < 2³² in each qword, X the raw draw. The 128-bit product x·nb is
// assembled from 32-bit limbs (x·nb = xh·nb·2³² + xl·nb = p2·2³² + p1):
//   s  = p2 + (p1 >> 32)          (cannot overflow: p2 ≤ 2⁶⁴−2³³+1)
//   hi = s >> 32                  (the bounded index, into HI)
//   lo = (s << 32) | (p1 & 2³²−1) (the rejection test operand)
// MSK receives per-lane all-ones where lo < negnb unsigned — those
// lanes must redraw. NEGB holds negnb with the sign bit pre-flipped;
// flipping lo's sign bit too turns VPCMPGTQ's signed compare into the
// unsigned one. T0/T1 are clobbered; HI may alias X.
#define BOUND(X, NB, NEGB, HI, MSK, T0, T1) \
	VPMULUDQ NB, X, T0                    \
	VPSRLQ   $32, X, T1                   \
	VPMULUDQ NB, T1, T1                   \
	VPSRLQ   $32, T0, MSK                 \
	VPADDQ   MSK, T1, T1                  \
	VPSRLQ   $32, T1, HI                  \
	VPSLLQ   $32, T1, T1                  \
	VPAND    ·svmcSIMDTab+0(SB), T0, T0   \
	VPOR     T1, T0, T0                   \
	VPXOR    ·svmcSIMDTab+256(SB), T0, T0 \
	VPCMPGTQ T0, NEGB, MSK

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

// SCORE finishes the proposal step for one 4-lane half at byte offset
// OFF of every per-lane array, OR-ing its four verdict bits into the
// accumulators at bit position SHIFT. Inputs, all set up by the main
// body: CX the args struct (read-only here; sn/cs pointers come from
// it), R8–R11 the state arrays (holding post-angle-draw states),
// R12 idx, R13 rot, R14 lanoff, R15 bounds, DX dE, SI u, and the
// stack frame holds na2 (0), b2 (32), beta (64) broadcast 4-wide.
// DI/BX accumulate the acc/ex bitmasks. AX and Y0–Y8/X2 are clobbered.
// The sequence, with the operand convention "op A, B, C ⇒ C = B op A"
// throughout:
//
//  1. gi = lanoff + 3·idx; gather the spin triplet zv = rot[gi],
//     sT = rot[gi+1], fv = rot[gi+2] (each gather needs a fresh
//     all-ones mask — the instruction clears its mask register).
//  2. dE = na2·(sn−sT) + (b2·(cs−zv))·fv, the scalar expression tree
//     op for op; store it. M0 = (dE ≤ 0), the downhill accept mask.
//  3. Reload the post-angle states, advance them once (the uphill
//     uniform draw), and blend: uphill lanes keep the advanced state,
//     downhill lanes the memory copy — exactly "draw u only when
//     dE > 0". Store the final states; convert the draw to
//     u = (x>>11)·2⁻⁵³ by the magic-number trick and store it.
//  4. k = trunc(beta·dE·expGridStep) via the truncating f64→i32
//     convert (out-of-range goes to 0x80000000, which the k ≥ 0 check
//     catches exactly like the scalar uint conversion's wraparound —
//     both land in the frozen-tail branch). inTable = 0 ≤ k < cap;
//     gmask = uphill ∧ inTable.
//  5. Gather the bracket hiB = bounds[2k], loB = bounds[2k+1]
//     under gmask (masked-off lanes touch no memory, so garbage k in
//     downhill/tail lanes is harmless). accLo = u < loB,
//     accHi = u < hiB; inside-the-bracket lanes (accLo ≠ accHi) are
//     undecided. Tail lanes (uphill, ¬inTable) are undecided only when
//     u < 2⁻⁵³ — otherwise they reject, exp(−x) being below every
//     representable draw.
//  6. ex = undecided; acc = M0 ∨ (gmask ∧ accLo). VMOVMSKPD packs each
//     mask's four sign bits into a nibble, shifted to SHIFT and OR-ed
//     into BX (ex) / DI (acc).
#define SCORE(OFF, SHIFT) \
	VMOVDQU OFF(R12), Y1                    \
	VPSLLQ $1, Y1, Y2                       \
	VPADDQ Y2, Y1, Y1                       \
	VPADDQ OFF(R14), Y1, Y1                 \
	VPCMPEQQ Y2, Y2, Y2                     \
	VXORPD Y3, Y3, Y3                       \
	VGATHERQPD Y2, (R13)(Y1*8), Y3          \
	VPCMPEQQ Y2, Y2, Y2                     \
	VXORPD Y4, Y4, Y4                       \
	VGATHERQPD Y2, 8(R13)(Y1*8), Y4         \
	VPCMPEQQ Y2, Y2, Y2                     \
	VXORPD Y5, Y5, Y5                       \
	VGATHERQPD Y2, 16(R13)(Y1*8), Y5        \
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
	VMOVUPD Y6, OFF(DX)                     \
	VXORPD Y0, Y0, Y0                       \
	VCMPPD $2, Y0, Y6, Y8                   \
	VMOVDQU OFF(R8), Y1                     \
	VMOVDQU OFF(R9), Y2                     \
	VMOVDQU OFF(R10), Y3                    \
	VMOVDQU OFF(R11), Y4                    \
	XOSHIRO(Y1, Y2, Y3, Y4, Y5, Y0, Y7)     \
	VBLENDVPD Y8, OFF(R8), Y1, Y1           \
	VBLENDVPD Y8, OFF(R9), Y2, Y2           \
	VBLENDVPD Y8, OFF(R10), Y3, Y3          \
	VBLENDVPD Y8, OFF(R11), Y4, Y4          \
	VMOVDQU Y1, OFF(R8)                     \
	VMOVDQU Y2, OFF(R9)                     \
	VMOVDQU Y3, OFF(R10)                    \
	VMOVDQU Y4, OFF(R11)                    \
	VPSRLQ $11, Y5, Y5                      \
	VPSRLQ $32, Y5, Y1                      \
	VPAND  ·svmcSIMDTab+0(SB), Y5, Y2       \
	VPOR   ·svmcSIMDTab+32(SB), Y1, Y1      \
	VPOR   ·svmcSIMDTab+64(SB), Y2, Y2      \
	VSUBPD ·svmcSIMDTab+96(SB), Y1, Y1      \
	VADDPD Y2, Y1, Y1                       \
	VMULPD ·svmcSIMDTab+128(SB), Y1, Y1     \
	VMOVUPD Y1, OFF(SI)                     \
	VMULPD 64(SP), Y6, Y2                   \
	VMULPD ·svmcSIMDTab+768(SB), Y2, Y2     \
	VCVTTPD2DQY Y2, X2                      \
	VPMOVSXDQ X2, Y2                        \
	VPXOR Y3, Y3, Y3                        \
	VPCMPGTQ Y2, Y3, Y4                     \
	VMOVDQU ·svmcSIMDTab+800(SB), Y7        \
	VPCMPGTQ Y2, Y7, Y5                     \
	VPANDN Y5, Y4, Y5                       \
	VPANDN Y5, Y8, Y7                       \
	VPSLLQ $1, Y2, Y2                       \
	VMOVDQA Y7, Y4                          \
	VXORPD Y3, Y3, Y3                       \
	VGATHERQPD Y4, (R15)(Y2*8), Y3          \
	VMOVDQA Y7, Y4                          \
	VXORPD Y0, Y0, Y0                       \
	VGATHERQPD Y4, 8(R15)(Y2*8), Y0         \
	VCMPPD $1, Y0, Y1, Y0                   \
	VCMPPD $1, Y3, Y1, Y3                   \
	VPXOR Y3, Y0, Y4                        \
	VPAND Y7, Y4, Y4                        \
	VPCMPEQQ Y2, Y2, Y2                     \
	VPXOR Y2, Y8, Y2                        \
	VPANDN Y2, Y5, Y2                       \
	VCMPPD $1, ·svmcSIMDTab+128(SB), Y1, Y1 \
	VPAND Y2, Y1, Y1                        \
	VPOR Y1, Y4, Y4                         \
	VMOVMSKPD Y4, AX                        \
	SHLL $SHIFT, AX                         \
	ORL AX, BX                              \
	VPAND Y7, Y0, Y0                        \
	VPOR Y8, Y0, Y0                         \
	VMOVMSKPD Y0, AX                        \
	SHLL $SHIFT, AX                         \
	ORL AX, DI

// func svmcStepx8(a *svmcStepArgs) bool
//
// The svmcStepArgs field offsets (+0 rs0 … +130 exm) are a hard
// contract with the struct definition in svmc_batch.go — the kernel is
// called once per spin per sweep, and a single struct pointer beats
// marshaling 17 stack arguments per call. CX holds the struct base for
// the whole body.
TEXT ·svmcStepx8(SB), NOSPLIT, $96-9
	MOVQ a+0(FP), CX
	MOVQ 0(CX), R8   // rs0
	MOVQ 8(CX), R9   // rs1
	MOVQ 16(CX), R10 // rs2
	MOVQ 24(CX), R11 // rs3

	VPBROADCASTQ 88(CX), Y12 // nb
	VPBROADCASTQ 96(CX), Y13 // negnb
	VPXOR ·svmcSIMDTab+256(SB), Y13, Y13 // bias negnb for the signed compare

	// States: half A (lanes 0–3) in Y0–Y3, half B (lanes 4–7) in Y4–Y7.
	VMOVDQU (R8), Y0
	VMOVDQU 32(R8), Y4
	VMOVDQU (R9), Y1
	VMOVDQU 32(R9), Y5
	VMOVDQU (R10), Y2
	VMOVDQU 32(R10), Y6
	VMOVDQU (R11), Y3
	VMOVDQU 32(R11), Y7

	// Draw 1: the proposal index. Until the Lemire check clears, nothing
	// may be stored — a rejecting call must leave all memory untouched.
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)
	XOSHIRO(Y4, Y5, Y6, Y7, Y9, Y10, Y11)
	BOUND(Y8, Y12, Y13, Y8, Y14, Y10, Y11)
	BOUND(Y9, Y12, Y13, Y9, Y15, Y10, Y11)
	VPOR   Y15, Y14, Y14
	VPTEST Y14, Y14
	JNZ reject

	MOVQ 32(CX), R12 // idx
	VMOVDQU Y8, (R12)
	VMOVDQU Y9, 32(R12)

	// Broadcast the scoring scalars to the frame while registers are
	// cheap; SCORE reads them as VEX memory operands.
	VPBROADCASTQ 104(CX), Y10 // na2
	VMOVDQU Y10, (SP)
	VPBROADCASTQ 112(CX), Y10 // b2
	VMOVDQU Y10, 32(SP)
	VPBROADCASTQ 120(CX), Y10 // beta
	VMOVDQU Y10, 64(SP)

	// Draw 2: the proposal angle. Store the states now — they are final
	// for downhill lanes, and SCORE re-advances and re-stores the lanes
	// whose uphill test consumes a third draw.
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)
	XOSHIRO(Y4, Y5, Y6, Y7, Y9, Y10, Y11)
	VMOVDQU Y0, (R8)
	VMOVDQU Y4, 32(R8)
	VMOVDQU Y1, (R9)
	VMOVDQU Y5, 32(R9)
	VMOVDQU Y2, (R10)
	VMOVDQU Y6, 32(R10)
	VMOVDQU Y3, (R11)
	VMOVDQU Y7, 32(R11)

	MOVQ 40(CX), AX // sn
	MOVQ 48(CX), DX // cs (DX is free until SCORE needs it for dE)

	SINCOSPI(Y8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10)
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (DX)

	SINCOSPI(Y9, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10)
	VMOVUPD Y0, 32(AX)
	VMOVUPD Y1, 32(DX)

	MOVQ 56(CX), R13 // rot
	MOVQ 64(CX), R14 // lanoff
	MOVQ 136(CX), R15 // bounds
	MOVQ 72(CX), DX // dE
	MOVQ 80(CX), SI // u
	XORL DI, DI     // acc bitmask
	XORL BX, BX     // ex bitmask

	SCORE(0, 0)
	SCORE(32, 4)

	MOVW DI, 128(CX) // accm
	MOVW BX, 130(CX) // exm
	VZEROUPPER
	MOVB $1, ret+8(FP)
	RET

reject:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET

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

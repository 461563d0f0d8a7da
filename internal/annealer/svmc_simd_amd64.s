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
// struct (read-only here; sn/cs pointers come from it), R8–R11 the
// state arrays (holding post-angle-draw states), R12 idx, R13 rot,
// R14 lanoff, R15 bounds, DX dE, SI u, and the stack frame holds
// na2 (0), b2 (32), beta (64) broadcast 4-wide. DI/BX accumulate the
// acc/ex bitmasks. AX and Y0–Y8/X2 are clobbered. With the operand
// convention "op A, B, C ⇒ C = B op A":
//
//  1. gi = lanoff + 3·idx; gather the spin triplet zv = rot[gi],
//     sT = rot[gi+1], fv = rot[gi+2] (each gather needs a fresh
//     all-ones mask — the instruction clears its mask register).
//  2. dE = na2·(sn−sT) + (b2·(cs−zv))·fv into Y6, the scalar
//     expression tree op for op.
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
	VERDICT(OFF, SHIFT)

// SCOREREGS loads the registers SCORE and VERDICT read (see SCORE) and
// clears the verdict accumulators.
#define SCOREREGS \
	MOVQ 56(CX), R13  \
	MOVQ 64(CX), R14  \
	MOVQ 136(CX), R15 \
	MOVQ 72(CX), DX   \
	MOVQ 80(CX), SI   \
	XORL DI, DI       \
	XORL BX, BX

// func svmcStepx8(a *svmcStepArgs) bool
//
// The svmcStepArgs field offsets (+0 rs0 … +272 w) are a hard
// contract with the struct definition in svmc_batch.go — the kernel is
// called once per spin per sweep, and a single struct pointer beats
// marshaling 17 stack arguments per call. CX holds the struct base for
// the whole body. A chunk whose live lanes all sit in half A (a group's
// part-filled last chunk of at most four reads) runs half A alone: the
// padding lanes of half B are neither advanced nor scored, since
// nothing reads them.
TEXT ·svmcStepx8(SB), NOSPLIT, $96-9
	MOVQ a+0(FP), CX
	MOVQ 0(CX), R8   // rs0
	MOVQ 8(CX), R9   // rs1
	MOVQ 16(CX), R10 // rs2
	MOVQ 24(CX), R11 // rs3

	VPBROADCASTQ 88(CX), Y12 // nb
	VPBROADCASTQ 96(CX), Y13 // negnb
	VPXOR ·svmcSIMDTab+256(SB), Y13, Y13 // bias negnb for the signed compare

	// Broadcast the scoring scalars to the frame while registers are
	// cheap; SCORE reads them as VEX memory operands.
	VPBROADCASTQ 104(CX), Y10 // na2
	VMOVDQU Y10, (SP)
	VPBROADCASTQ 112(CX), Y10 // b2
	VMOVDQU Y10, 32(SP)
	VPBROADCASTQ 120(CX), Y10 // beta
	VMOVDQU Y10, 64(SP)

	TESTB $0xF0, 132(CX) // any live lane in half B?
	JZ   half

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

	SCOREREGS
	SCORE(0, 0)
	SCORE(32, 4)

scored:
	// Apply every decided accept of a live lane: the rotor takes the
	// proposal's (cos, sin), and dz = nz − z is added to the lane's
	// fields along its own CSR row, in row order — the same operations,
	// in the same order, as the Go apply. Undecided lanes are left to
	// the caller; accm reports the lanes applied here.
	MOVW BX, 130(CX)        // exm
	NOTL BX
	ANDL BX, DI
	MOVWLZX 132(CX), AX
	ANDL AX, DI             // applied = acc ∧ ¬ex ∧ live
	MOVW DI, 128(CX)        // accm
	MOVQ 40(CX), R8         // sn
	MOVQ 48(CX), R9         // cs
apply:
	TESTL DI, DI
	JZ   applied
	BSFL DI, AX             // lane j
	BTRL AX, DI
	MOVQ (R12)(AX*8), R10   // i = idx[j]
	MOVQ (R14)(AX*8), R11   // lanoff[j]
	LEAQ (R10)(R10*2), BX
	ADDQ R11, BX            // bi = lanoff + 3i
	VMOVSD (R9)(AX*8), X0   // nz
	VSUBSD (R13)(BX*8), X0, X1 // dz = nz − z
	VMOVSD X0, (R13)(BX*8)
	VMOVSD (R8)(AX*8), X0
	VMOVSD X0, 8(R13)(BX*8)
	MOVQ 144(CX)(AX*8), DX  // offs[j]
	MOVLQSX (DX)(R10*4), SI // k = offs[i]
	MOVLQSX 4(DX)(R10*4), DX // end = offs[i+1]
	CMPQ SI, DX
	JGE  apply
	MOVQ 208(CX)(AX*8), R10 // cols[j]
	MOVQ 272(CX)(AX*8), R15 // w[j]
	LEAQ 16(R13)(R11*8), R11 // the lane's fields, stride 3
row:
	MOVLQSX (R10)(SI*4), BX
	LEAQ (BX)(BX*2), BX
	VMULSD (R15)(SI*8), X1, X0
	VADDSD (R11)(BX*8), X0, X0 // field += w·dz
	VMOVSD X0, (R11)(BX*8)
	INCQ SI
	CMPQ SI, DX
	JLT  row
	JMP  apply
applied:
	VZEROUPPER
	MOVB $1, ret+8(FP)
	RET

reject:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET

half:
	// The full path above restricted to half A.
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VMOVDQU (R10), Y2
	VMOVDQU (R11), Y3
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)
	BOUND(Y8, Y12, Y13, Y8, Y14, Y10, Y11)
	VPTEST Y14, Y14
	JNZ reject
	MOVQ 32(CX), R12 // idx
	VMOVDQU Y8, (R12)
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)
	VMOVDQU Y0, (R8)
	VMOVDQU Y1, (R9)
	VMOVDQU Y2, (R10)
	VMOVDQU Y3, (R11)
	MOVQ 40(CX), AX // sn
	MOVQ 48(CX), DX // cs
	SINCOSPI(Y8, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10)
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (DX)
	SCOREREGS
	SCORE(0, 0)
	JMP scored

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

// Macros shared by the AVX2 lockstep kernels (svmc_simd_amd64.s and
// sa_simd_amd64.s). Everything here is exact integer arithmetic or an
// IEEE-754 vector op that rounds like its scalar counterpart; FMA is
// never used. Constants come from ·svmcSIMDTab (svmc_simd_amd64.go).
// The header sits in the package directory because the Go build cache
// only tracks included files there.


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

// VERDICT finishes a Metropolis proposal step for one 4-lane half at
// byte offset OFF of every per-lane array, given the proposal's energy
// delta in Y6, and ORs its four verdict bits into the accumulators at
// bit position SHIFT. Register contract, set up by the calling kernel:
// R8–R11 the lane state arrays (holding the states after every draw
// that precedes the uphill uniform), R15 metropolis.Bounds, DX the dE
// output array, SI the u output array, and beta broadcast 4-wide at
// 64(SP). DI/BX accumulate the acc/ex bitmasks. AX and Y0–Y8/X2 are
// clobbered. The sequence, with the operand convention
// "op A, B, C ⇒ C = B op A" throughout:
//
//  1. Store dE. M0 = (dE ≤ 0), the downhill accept mask.
//  2. Reload the states, advance them once (the uphill uniform draw),
//     and blend: uphill lanes keep the advanced state, downhill lanes
//     the memory copy — exactly "draw u only when dE > 0". Store the
//     final states; convert the draw to u = (x>>11)·2⁻⁵³ by the
//     magic-number trick (see SINCOSPI in svmc_simd_amd64.s) and
//     store it.
//  3. k = trunc(beta·dE·expGridStep) via the truncating f64→i32
//     convert (out-of-range goes to 0x80000000, which the k ≥ 0 check
//     catches exactly like the scalar uint conversion's wraparound —
//     both land in the frozen-tail branch). inTable = 0 ≤ k < cap;
//     gmask = uphill ∧ inTable.
//  4. Gather the bracket hiB = bounds[2k], loB = bounds[2k+1]
//     under gmask (masked-off lanes touch no memory, so garbage k in
//     downhill/tail lanes is harmless). accLo = u < loB,
//     accHi = u < hiB; inside-the-bracket lanes (accLo ≠ accHi) are
//     undecided. Tail lanes (uphill, ¬inTable) are undecided only when
//     u < 2⁻⁵³ — otherwise they reject, exp(−x) being below every
//     representable draw.
//  5. ex = undecided; acc = M0 ∨ (gmask ∧ accLo). VMOVMSKPD packs each
//     mask's four sign bits into a nibble, shifted to SHIFT and OR-ed
//     into BX (ex) / DI (acc).
#define VERDICT(OFF, SHIFT) \
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

// AVX2 lockstep simulated-annealing step. See sa_group.go for the
// contract. Like the SVMC kernel, everything here is exact integer
// arithmetic or an IEEE-754 op that rounds like its scalar counterpart;
// FMA is never used, and every scalar float op is VEX-encoded so no
// SSE/AVX transition penalty applies.

#include "textflag.h"
#include "lockstep_simd.h"

// SASCORE scores the proposal for one 4-lane half at byte offset OFF of
// every per-lane array and hands its energy delta to VERDICT
// (lockstep_simd.h). IDX holds the half's proposal indices; CX the
// args struct, R13 the lane-major g = −2·spin array and R14 the
// lane-major field array, plus the VERDICT register contract. With the
// operand convention "op A, B, C ⇒ C = B op A":
//
//  1. gi = lanoff + idx; gather g = spins[gi] and f = field[gi] (each
//     gather needs a fresh all-ones mask — the instruction clears its
//     mask register).
//  2. dE = g·f into Y6 — the scalar -2 * float64(spins[i]) * field[i]
//     with its exact first product precomputed.
#define SASCORE(OFF, SHIFT, IDX) \
	VPADDQ 320+OFF(CX), IDX, Y1             \
	VPCMPEQQ Y2, Y2, Y2                     \
	VXORPD Y3, Y3, Y3                       \
	VGATHERQPD Y2, (R13)(Y1*8), Y3          \
	VPCMPEQQ Y2, Y2, Y2                     \
	VXORPD Y5, Y5, Y5                       \
	VGATHERQPD Y2, (R14)(Y1*8), Y5          \
	VMULPD Y5, Y3, Y6                       \
	VERDICT(OFF, SHIFT)

// func saStepx8(a *saStepArgs) bool
//
// The saStepArgs field offsets are a hard contract with the struct in
// sa_group.go (TestSAStepArgsLayout). CX holds the struct base for the
// whole body; the per-lane arrays are inline in it. The frame holds
// beta broadcast 4-wide at 64(SP), where VERDICT reads it.
TEXT ·saStepx8(SB), NOSPLIT, $96-9
	MOVQ a+0(FP), CX
	LEAQ 0(CX), R8   // rs0
	LEAQ 64(CX), R9  // rs1
	LEAQ 128(CX), R10 // rs2
	LEAQ 192(CX), R11 // rs3

	VPBROADCASTQ 672(CX), Y12 // nb
	VPBROADCASTQ 680(CX), Y13 // negnb
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

	// The proposal index. Until the Lemire check clears, nothing may be
	// stored — a rejecting call must leave all memory untouched.
	XOSHIRO(Y0, Y1, Y2, Y3, Y8, Y10, Y11)
	XOSHIRO(Y4, Y5, Y6, Y7, Y9, Y10, Y11)
	BOUND(Y8, Y12, Y13, Y8, Y14, Y10, Y11)
	BOUND(Y9, Y12, Y13, Y9, Y15, Y10, Y11)
	VPOR   Y15, Y14, Y14
	VPTEST Y14, Y14
	JNZ reject

	VMOVDQU Y8, 256(CX) // idx
	VMOVDQU Y9, 288(CX)

	// Store the post-index states: final for downhill lanes, and VERDICT
	// re-advances and re-stores the lanes whose uphill test draws.
	VMOVDQU Y0, (R8)
	VMOVDQU Y4, 32(R8)
	VMOVDQU Y1, (R9)
	VMOVDQU Y5, 32(R9)
	VMOVDQU Y2, (R10)
	VMOVDQU Y6, 32(R10)
	VMOVDQU Y3, (R11)
	VMOVDQU Y7, 32(R11)

	VPBROADCASTQ 704(CX), Y10 // beta
	VMOVDQU Y10, 64(SP)

	MOVQ 640(CX), R13 // spins (g = −2·spin)
	MOVQ 648(CX), R14 // field
	MOVQ 664(CX), R15 // bounds
	LEAQ 384(CX), DX  // dE
	LEAQ 448(CX), SI  // u
	XORL DI, DI       // acc bitmask
	XORL BX, BX       // ex bitmask

	// Half B's indices stay in Y9, which VERDICT does not clobber.
	SASCORE(0, 0, Y8)
	SASCORE(32, 4, Y9)

	// Apply every decided accept of a live lane: negate g at the
	// proposed spin, add the signed row for the new spin to the lane's
	// fields 4-wide, add dE to the lane's energy, and record a new best
	// in bestE and the bestm bitmask. Undecided lanes are left to the
	// caller.
	MOVL BX, 716(CX)        // exm
	NOTL BX
	ANDL BX, DI
	ANDL 712(CX), DI        // applied = acc ∧ ¬ex ∧ live
	XORL SI, SI             // bestm
	MOVQ 656(CX), R15       // rows
	MOVQ 688(CX), DX        // n
	MOVQ 696(CX), R9        // np
apply:
	TESTL DI, DI
	JZ   applied
	BSFL DI, AX             // lane j
	BTRL AX, DI
	MOVQ 256(CX)(AX*8), R8  // idx[j]
	MOVQ 320(CX)(AX*8), BX  // lanoff[j]
	LEAQ (BX)(R8*1), R10
	VMOVSD (R13)(R10*8), X0
	VXORPD ·svmcSIMDTab+256(SB), X0, X0 // g' = −g
	VMOVSD X0, (R13)(R10*8)
	// Row index: idx for a new spin of +1 (g' < 0), n+idx for −1.
	VMOVQ X0, R10
	SARQ $63, R10
	NOTQ R10
	ANDQ DX, R10
	ADDQ R8, R10
	IMULQ R9, R10
	LEAQ (R15)(R10*8), R10  // row
	LEAQ (R14)(BX*8), R11   // the lane's fields
	MOVQ R9, R12
row:
	VMOVUPD (R11), Y0
	VADDPD  (R10), Y0, Y0
	VMOVUPD Y0, (R11)
	ADDQ $32, R11
	ADDQ $32, R10
	SUBQ $4, R12
	JNZ  row
	VMOVSD 512(CX)(AX*8), X0
	VADDSD 384(CX)(AX*8), X0, X0 // energy += dE
	VMOVSD X0, 512(CX)(AX*8)
	VCMPSD $1, 576(CX)(AX*8), X0, X1 // energy < bestE
	VMOVQ X1, R10
	TESTQ R10, R10
	JZ   apply
	VMOVSD X0, 576(CX)(AX*8)
	BTSL AX, SI
	JMP  apply
applied:
	MOVL SI, 720(CX) // bestm
	VZEROUPPER
	MOVB $1, ret+8(FP)
	RET

reject:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET

// AVX2 lockstep simulated-annealing step, and the scalar lane that runs
// narrow groups one lane at a time. See sa_group.go for the contracts.
// Like the SVMC kernel, everything here is exact integer arithmetic or
// an IEEE-754 op that rounds like its scalar counterpart; FMA is never
// used, and every scalar float op is VEX-encoded so no SSE/AVX
// transition penalty applies.

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

// XADVANCE steps the xoshiro256++ state in R8–R11 (s0–s3) past one
// draw, with DX as scratch — xoshiroNext's state update.
#define XADVANCE \
	MOVQ R9, DX  \
	SHLQ $17, DX \
	XORQ R8, R10 \
	XORQ R9, R11 \
	XORQ R10, R9 \
	XORQ R11, R8 \
	XORQ DX, R10 \
	ROLQ $45, R11

// XDRAW leaves the next xoshiro256++ output in AX and advances the
// state (clobbers DX).
#define XDRAW \
	LEAQ (R8)(R11*1), AX \
	ROLQ $23, AX         \
	ADDQ R8, AX          \
	XADVANCE

// func saLanex1(a *saLaneArgs) bool
//
// The saLaneArgs field offsets are a hard contract with the struct in
// sa_group.go (TestSALaneArgsLayout). Registers for the whole body:
// R8–R11 the stream, SI g, DI the fields, R12 the rows, R13 bestG, R14
// n, CX the step within the sweep, BX the proposed spin; X0 β, X1 the
// energy, X2 the best energy, X3 0, X4 2⁻⁵³, X5 32 (GridStep), X6 the
// sign bit. The frame holds np·8 at 0(SP), the bracket table at 8(SP),
// the sweeps left at 16(SP), the β ratio at 24(SP) and negnb at 32(SP).
TEXT ·saLanex1(SB), NOSPLIT, $40-9
	MOVQ a+0(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), SI
	MOVQ 40(AX), DI
	MOVQ 48(AX), R13
	MOVQ 56(AX), R12
	MOVQ 64(AX), DX
	MOVQ DX, 8(SP)
	MOVQ 72(AX), R14
	MOVQ 80(AX), DX
	MOVQ DX, 32(SP)
	MOVQ 88(AX), DX
	SHLQ $3, DX
	MOVQ DX, 0(SP)
	MOVQ 104(AX), DX
	MOVQ DX, 24(SP)
	MOVQ 136(AX), DX
	MOVQ DX, 16(SP)
	VMOVSD 96(AX), X0
	VMOVSD 112(AX), X1
	VMOVSD 120(AX), X2
	MOVQ 128(AX), CX
	VXORPD X3, X3, X3
	MOVQ $0x3CA0000000000000, DX
	VMOVQ DX, X4
	MOVQ $0x4040000000000000, DX
	VMOVQ DX, X5
	MOVQ $0x8000000000000000, DX
	VMOVQ DX, X6

	// A call after an undecided return first finishes that proposal:
	// the caller's verdict is in settle.
	MOVQ 176(AX), DX
	TESTQ DX, DX
	JZ   fresh
	MOVQ $0, 176(AX)
	MOVQ 144(AX), BX
	VMOVSD 152(AX), X7
	CMPQ DX, $2
	JEQ  accept
	JMP  next
fresh:
	CMPQ 16(SP), $0
	JEQ  done

step:
	// The index: Lemire's multiply-shift, redrawing while lo < negnb.
	XDRAW
	MULQ R14
	CMPQ AX, 32(SP)
	JB   redraw
drawn:
	MOVQ DX, BX
	VMOVSD (SI)(BX*8), X7
	VMULSD (DI)(BX*8), X7, X7 // dE = g·f
	VUCOMISD X7, X3
	JAE  accept               // dE ≤ 0 (not NaN): downhill

	// Uphill: u, then metropolis.Bracket(u, β·dE).
	XDRAW
	SHRQ $11, AX
	VXORPD X8, X8, X8
	VCVTSI2SDQ AX, X8, X8
	VMULSD X4, X8, X8         // u
	VMULSD X0, X7, X9         // x = β·dE
	VMULSD X5, X9, X10
	VCVTTSD2SIQ X10, AX       // slot k = x·32; NaN and overflow give 1<<63
	CMPQ AX, $1280            // GridMax
	JAE  tail
	SHLQ $4, AX
	MOVQ 8(SP), DX
	VUCOMISD (DX)(AX*1), X8   // u ≥ Bounds[2k]: reject
	JAE  next
	VUCOMISD 8(DX)(AX*1), X8  // u < Bounds[2k+1]: accept
	JB   accept
	JMP  undecided
tail:
	VUCOMISD X4, X8           // past the table every u ≥ 2⁻⁵³ rejects
	JAE  next
	JMP  undecided

accept:
	// Negate g at the proposed spin, then add the row of the new spin
	// (i for +1, when g' < 0; n+i for −1) to the fields 4-wide.
	VMOVSD (SI)(BX*8), X9
	VXORPD X6, X9, X9
	VMOVSD X9, (SI)(BX*8)
	VMOVQ X9, AX
	SARQ $63, AX
	NOTQ AX
	ANDQ R14, AX
	ADDQ BX, AX
	IMULQ 0(SP), AX
	ADDQ R12, AX
	XORL DX, DX
row:
	VMOVUPD (DI)(DX*1), Y9
	VADDPD  (AX)(DX*1), Y9, Y9
	VMOVUPD Y9, (DI)(DX*1)
	ADDQ $32, DX
	CMPQ DX, 0(SP)
	JB   row
	VADDSD X7, X1, X1         // energy += dE
	VUCOMISD X1, X2
	JBE  next                 // not below the best energy
	VMOVAPD X1, X2
	XORL DX, DX
best:
	VMOVUPD (SI)(DX*1), Y9
	VMOVUPD Y9, (R13)(DX*1)
	ADDQ $32, DX
	CMPQ DX, 0(SP)
	JB   best

next:
	INCQ CX
	CMPQ CX, R14
	JB   step
	XORL CX, CX
	VMULSD 24(SP), X0, X0     // β *= ratio
	DECQ 16(SP)
	JNZ  step

done:
	MOVQ a+0(FP), AX
	MOVB $1, ret+8(FP)
	JMP  save

redraw:
	XDRAW
	MULQ R14
	CMPQ AX, 32(SP)
	JB   redraw
	JMP  drawn

undecided:
	// Hand the proposal to the caller: metropolis.Exact(u, x) decides,
	// and the next call applies an accept and moves on.
	MOVQ a+0(FP), AX
	MOVQ BX, 144(AX)
	VMOVSD X7, 152(AX)
	VMOVSD X9, 160(AX)
	VMOVSD X8, 168(AX)
	MOVQ $1, 176(AX)          // settle = saLanePending
	MOVB $0, ret+8(FP)

save:
	MOVQ R8, 0(AX)
	MOVQ R9, 8(AX)
	MOVQ R10, 16(AX)
	MOVQ R11, 24(AX)
	VMOVSD X0, 96(AX)
	VMOVSD X1, 112(AX)
	VMOVSD X2, 120(AX)
	MOVQ CX, 128(AX)
	MOVQ 16(SP), DX
	MOVQ DX, 136(AX)
	VZEROUPPER
	RET

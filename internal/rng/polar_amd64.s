// Batched polar Box-Muller scaling. See polar_amd64.go for the
// contract. POLAR is math.Log's amd64 assembly (archLog in the standard
// library's log_amd64.s) instruction for instruction on packed doubles,
// two radii per SSE2 register, followed by NormFloat64's
// √(−2·ln s / s): every op is an IEEE-754 add, sub, mul, div or sqrt
// that rounds like its scalar twin, or exact bit and integer work, and
// there is no FMA, so each lane's value is bit-identical to the scalar
// path's.

#include "textflag.h"

// polarTab holds each constant twice, one 16-byte row per constant.
DATA polarTab<>+0(SB)/8, $0x000FFFFFFFFFFFFF   // mantissa mask
DATA polarTab<>+8(SB)/8, $0x000FFFFFFFFFFFFF
DATA polarTab<>+16(SB)/8, $0x3FE0000000000000  // 0.5
DATA polarTab<>+24(SB)/8, $0x3FE0000000000000
DATA polarTab<>+32(SB)/8, $0x3FE6A09E667F3BCD  // √2/2
DATA polarTab<>+40(SB)/8, $0x3FE6A09E667F3BCD
DATA polarTab<>+48(SB)/8, $0x3FF0000000000000  // 1
DATA polarTab<>+56(SB)/8, $0x3FF0000000000000
DATA polarTab<>+64(SB)/8, $0x4000000000000000  // 2
DATA polarTab<>+72(SB)/8, $0x4000000000000000
DATA polarTab<>+80(SB)/8, $0x3FC2F112DF3E5244  // L7
DATA polarTab<>+88(SB)/8, $0x3FC2F112DF3E5244
DATA polarTab<>+96(SB)/8, $0x3FC7466496CB03DE  // L5
DATA polarTab<>+104(SB)/8, $0x3FC7466496CB03DE
DATA polarTab<>+112(SB)/8, $0x3FD2492494229359 // L3
DATA polarTab<>+120(SB)/8, $0x3FD2492494229359
DATA polarTab<>+128(SB)/8, $0x3FE5555555555593 // L1
DATA polarTab<>+136(SB)/8, $0x3FE5555555555593
DATA polarTab<>+144(SB)/8, $0x3FC39A09D078C69F // L6
DATA polarTab<>+152(SB)/8, $0x3FC39A09D078C69F
DATA polarTab<>+160(SB)/8, $0x3FCC71C51D8E78AF // L4
DATA polarTab<>+168(SB)/8, $0x3FCC71C51D8E78AF
DATA polarTab<>+176(SB)/8, $0x3FD999999997FA04 // L2
DATA polarTab<>+184(SB)/8, $0x3FD999999997FA04
DATA polarTab<>+192(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA polarTab<>+200(SB)/8, $0x3DEA39EF35793C76
DATA polarTab<>+208(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA polarTab<>+216(SB)/8, $0x3FE62E42FEE00000
DATA polarTab<>+224(SB)/8, $0xC000000000000000 // −2
DATA polarTab<>+232(SB)/8, $0xC000000000000000
DATA polarTab<>+240(SB)/8, $0x000003FE000003FE // exponent bias 0x3FE, as int32s
DATA polarTab<>+248(SB)/8, $0x000003FE000003FE
// 256 bytes: the linker aligns a symbol this size to 32, as the SSE2
// memory operands below need 16.
GLOBL polarTab<>(SB), RODATA|NOPTR, $256

// POLAR turns the two radii in S into their NormFloat64 scales
// f = √(−2·ln s / s), in K. The log is archLog's sequence: frexp by bit
// masks (f1 in F, k in K), the k −= 1, f1 ·= 2 step when f1 ≤ √2/2 by
// the same compare, then the same polynomial and final combination in
// the same order. A, B, C and D are clobbered; S is kept.
#define POLAR(S, K, F, A, B, C, D) \
	MOVAPD S, F                     \
	ANDPD  polarTab<>+0(SB), F      \
	ORPD   polarTab<>+16(SB), F     \
	MOVAPD S, K                     \
	PSRLQ  $52, K                   \
	PSHUFD $0x08, K, K              \
	PSUBL  polarTab<>+240(SB), K    \
	CVTPL2PD K, K                   \
	MOVAPD polarTab<>+32(SB), A     \
	CMPPD  F, A, 5                  \
	ANDPD  polarTab<>+48(SB), A     \
	SUBPD  A, K                     \
	ADDPD  polarTab<>+48(SB), A     \
	MULPD  A, F                     \
	SUBPD  polarTab<>+48(SB), F     \
	MOVAPD polarTab<>+64(SB), A     \
	ADDPD  F, A                     \
	MOVAPD F, B                     \
	DIVPD  A, B                     \
	MOVAPD B, C                     \
	MULPD  C, C                     \
	MOVAPD C, D                     \
	MULPD  D, D                     \
	MOVAPD polarTab<>+80(SB), A     \
	MULPD  D, A                     \
	ADDPD  polarTab<>+96(SB), A     \
	MULPD  D, A                     \
	ADDPD  polarTab<>+112(SB), A    \
	MULPD  D, A                     \
	ADDPD  polarTab<>+128(SB), A    \
	MULPD  A, C                     \
	MOVAPD polarTab<>+144(SB), A    \
	MULPD  D, A                     \
	ADDPD  polarTab<>+160(SB), A    \
	MULPD  D, A                     \
	ADDPD  polarTab<>+176(SB), A    \
	MULPD  A, D                     \
	ADDPD  D, C                     \
	MOVAPD polarTab<>+16(SB), A     \
	MULPD  F, A                     \
	MULPD  F, A                     \
	ADDPD  A, C                     \
	MULPD  C, B                     \
	MOVAPD polarTab<>+192(SB), C    \
	MULPD  K, C                     \
	ADDPD  C, B                     \
	SUBPD  B, A                     \
	SUBPD  F, A                     \
	MULPD  polarTab<>+208(SB), K    \
	SUBPD  A, K                     \
	MULPD  polarTab<>+224(SB), K    \
	DIVPD  S, K                     \
	SQRTPD K, K

// SCALE multiplies the two pairs at byte offset OFF of DI by their
// scales in K: (u, v) of the first by f₀, of the second by f₁. A and B
// are clobbered.
#define SCALE(OFF, K, A, B) \
	MOVUPD OFF(DI), A      \
	MOVAPD K, B            \
	UNPCKLPD B, B          \
	MULPD  B, A            \
	MOVUPD A, OFF(DI)      \
	MOVUPD OFF+16(DI), A   \
	UNPCKHPD K, K          \
	MULPD  K, A            \
	MOVUPD A, OFF+16(DI)

// func polarScale4(uv, s *float64, blocks int)
TEXT ·polarScale4(SB), NOSPLIT, $0-24
	MOVQ uv+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ blocks+16(FP), CX
loop:
	MOVUPD 0(SI), X0
	MOVUPD 16(SI), X8
	POLAR(X0, X1, X2, X3, X4, X5, X6)
	POLAR(X8, X9, X10, X11, X12, X13, X14)
	SCALE(0, X1, X3, X4)
	SCALE(32, X9, X11, X12)
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop
	RET

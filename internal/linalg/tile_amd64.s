#include "textflag.h"

// The register tiles, 4 lanes in Y registers (AVX) and 8 in Z registers
// (AVX-512F). Each body is written once, as a macro over the register
// names and the lane stride LB in bytes, and the four leaves expand it:
//
//	func tile4x8(v, s *float64, stride, k int, acc *[32]float64)
//	func tile8x8(v, s *float64, stride, k int, acc *[64]float64)
//	func tile4x8fin(v, s *float64, stride, k int, acc *[32]float64)
//	func tile8x8fin(v, s *float64, stride, k int, acc *[64]float64)
//
// With L lanes, acc[c*L+r] -= v[L*kk+r] * s[c*stride+kk] for kk = 0…k−1
// in ascending order. Accumulator c lives in register <c>, one entry per
// lane; every product is one VMULPD and every subtraction one VSUBPD, and
// the finishing leaves divide with VDIVPD, so each lane rounds exactly as
// the scalar MULSD/SUBSD/DIVSD does. No FMA.

// TILE_LOOP loads the arguments and the 8 accumulators A0…A7, then runs
// the k loop with V for the lanes of v and T0…T5 for the broadcast row
// values. The 8 rows of s are DI, R8…R13, BX. It leaves DX = k and SI at
// v[L*k].
#define TILE_LOOP(A0, A1, A2, A3, A4, A5, A6, A7, V, T0, T1, T2, T3, T4, T5, LB) \
	MOVQ         v+0(FP), SI;        \
	MOVQ         s+8(FP), DI;        \
	MOVQ         stride+16(FP), DX;  \
	MOVQ         k+24(FP), CX;       \
	MOVQ         acc+32(FP), AX;     \
	VMOVUPD      (0*LB)(AX), A0;     \
	VMOVUPD      (1*LB)(AX), A1;     \
	VMOVUPD      (2*LB)(AX), A2;     \
	VMOVUPD      (3*LB)(AX), A3;     \
	VMOVUPD      (4*LB)(AX), A4;     \
	VMOVUPD      (5*LB)(AX), A5;     \
	VMOVUPD      (6*LB)(AX), A6;     \
	VMOVUPD      (7*LB)(AX), A7;     \
	SHLQ         $3, DX;             \
	LEAQ         (DI)(DX*1), R8;     \
	LEAQ         (R8)(DX*1), R9;     \
	LEAQ         (R9)(DX*1), R10;    \
	LEAQ         (R10)(DX*1), R11;   \
	LEAQ         (R11)(DX*1), R12;   \
	LEAQ         (R12)(DX*1), R13;   \
	LEAQ         (R13)(DX*1), BX;    \
	XORQ         DX, DX;             \
	CMPQ         CX, $0;             \
	JLE          done;               \
loop:                                \
	VMOVUPD      (SI), V;            \
	VBROADCASTSD (DI)(DX*8), T0;     \
	VMULPD       V, T0, T0;          \
	VSUBPD       T0, A0, A0;         \
	VBROADCASTSD (R8)(DX*8), T1;     \
	VMULPD       V, T1, T1;          \
	VSUBPD       T1, A1, A1;         \
	VBROADCASTSD (R9)(DX*8), T2;     \
	VMULPD       V, T2, T2;          \
	VSUBPD       T2, A2, A2;         \
	VBROADCASTSD (R10)(DX*8), T3;    \
	VMULPD       V, T3, T3;          \
	VSUBPD       T3, A3, A3;         \
	VBROADCASTSD (R11)(DX*8), T4;    \
	VMULPD       V, T4, T4;          \
	VSUBPD       T4, A4, A4;         \
	VBROADCASTSD (R12)(DX*8), T5;    \
	VMULPD       V, T5, T5;          \
	VSUBPD       T5, A5, A5;         \
	VBROADCASTSD (R13)(DX*8), T0;    \
	VMULPD       V, T0, T0;          \
	VSUBPD       T0, A6, A6;         \
	VBROADCASTSD (BX)(DX*8), T1;     \
	VMULPD       V, T1, T1;          \
	VSUBPD       T1, A7, A7;         \
	ADDQ         $LB, SI;            \
	INCQ         DX;                 \
	CMPQ         DX, CX;             \
	JLT          loop;               \
done:

// TERM subtracts the finished accumulator AK times the entry OFF bytes
// right of s[c*stride+k] in row R from accumulator AC, through T.
#define TERM(R, OFF, AK, AC, T) \
	VBROADCASTSD OFF(R)(DX*8), T; \
	VMULPD       AK, T, T;        \
	VSUBPD       T, AC, AC

// PIVOT divides accumulator AC by the entry OFF bytes right of
// s[c*stride+k] in row R, through T.
#define PIVOT(R, OFF, AC, T) \
	VBROADCASTSD OFF(R)(DX*8), T; \
	VDIVPD       T, AC, AC

// TILE_FINISH completes the 8×8 triangle after TILE_LOOP: for c = 0…7,
// accumulator c subtracts acc_kk·s[c*stride+k+kk] for kk < c in ascending
// order, with acc_kk already finished, and is divided by s[c*stride+k+c].
#define TILE_FINISH(A0, A1, A2, A3, A4, A5, A6, A7, T0, T1) \
	PIVOT(DI, 0, A0, T0);       \
	TERM(R8, 0, A0, A1, T0);    \
	PIVOT(R8, 8, A1, T1);       \
	TERM(R9, 0, A0, A2, T0);    \
	TERM(R9, 8, A1, A2, T1);    \
	PIVOT(R9, 16, A2, T0);      \
	TERM(R10, 0, A0, A3, T1);   \
	TERM(R10, 8, A1, A3, T0);   \
	TERM(R10, 16, A2, A3, T1);  \
	PIVOT(R10, 24, A3, T0);     \
	TERM(R11, 0, A0, A4, T1);   \
	TERM(R11, 8, A1, A4, T0);   \
	TERM(R11, 16, A2, A4, T1);  \
	TERM(R11, 24, A3, A4, T0);  \
	PIVOT(R11, 32, A4, T1);     \
	TERM(R12, 0, A0, A5, T0);   \
	TERM(R12, 8, A1, A5, T1);   \
	TERM(R12, 16, A2, A5, T0);  \
	TERM(R12, 24, A3, A5, T1);  \
	TERM(R12, 32, A4, A5, T0);  \
	PIVOT(R12, 40, A5, T1);     \
	TERM(R13, 0, A0, A6, T0);   \
	TERM(R13, 8, A1, A6, T1);   \
	TERM(R13, 16, A2, A6, T0);  \
	TERM(R13, 24, A3, A6, T1);  \
	TERM(R13, 32, A4, A6, T0);  \
	TERM(R13, 40, A5, A6, T1);  \
	PIVOT(R13, 48, A6, T0);     \
	TERM(BX, 0, A0, A7, T1);    \
	TERM(BX, 8, A1, A7, T0);    \
	TERM(BX, 16, A2, A7, T1);   \
	TERM(BX, 24, A3, A7, T0);   \
	TERM(BX, 32, A4, A7, T1);   \
	TERM(BX, 40, A5, A7, T0);   \
	TERM(BX, 48, A6, A7, T1);   \
	PIVOT(BX, 56, A7, T0)

// TILE_STORE stores the 8 accumulators at P, LB bytes apart.
#define TILE_STORE(A0, A1, A2, A3, A4, A5, A6, A7, P, LB) \
	VMOVUPD A0, (0*LB)(P); \
	VMOVUPD A1, (1*LB)(P); \
	VMOVUPD A2, (2*LB)(P); \
	VMOVUPD A3, (3*LB)(P); \
	VMOVUPD A4, (4*LB)(P); \
	VMOVUPD A5, (5*LB)(P); \
	VMOVUPD A6, (6*LB)(P); \
	VMOVUPD A7, (7*LB)(P)

TEXT ·tile4x8(SB), NOSPLIT, $0-40
	TILE_LOOP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, 32)
	TILE_STORE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, AX, 32)
	VZEROUPPER
	RET

TEXT ·tile8x8(SB), NOSPLIT, $0-40
	TILE_LOOP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, 64)
	TILE_STORE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, AX, 64)
	VZEROUPPER
	RET

// The finishing leaves store each finished lane vector c to v[L*(k+c)]
// as well as to acc.
TEXT ·tile4x8fin(SB), NOSPLIT, $0-40
	TILE_LOOP(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, 32)
	TILE_FINISH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y9, Y10)
	TILE_STORE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, SI, 32)
	TILE_STORE(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, AX, 32)
	VZEROUPPER
	RET

TEXT ·tile8x8fin(SB), NOSPLIT, $0-40
	TILE_LOOP(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, 64)
	TILE_FINISH(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z9, Z10)
	TILE_STORE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, SI, 64)
	TILE_STORE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, AX, 64)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

#include "textflag.h"

// func tile4x8(v *float64, s *float64, stride, k int, acc *[32]float64)
//
// acc[c*4+r] -= v[4*kk+r] * s[c*stride+kk] for kk = 0…k−1 in ascending
// order. Accumulator c lives in Y<c>, one entry per lane; every product is
// one VMULPD and every subtraction one VSUBPD, so each lane rounds exactly
// as the scalar MULSD/SUBSD pair does. No FMA.
TEXT ·tile4x8(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ s+8(FP), DI
	MOVQ stride+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ acc+32(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7

	// The eight rows of s: DI, R8…R13, BX.
	SHLQ $3, DX
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), BX

	XORQ DX, DX // kk
	CMPQ CX, $0
	JLE  store

loop:
	VMOVUPD      (SI), Y8
	VBROADCASTSD (DI)(DX*8), Y9
	VMULPD       Y8, Y9, Y9
	VSUBPD       Y9, Y0, Y0
	VBROADCASTSD (R8)(DX*8), Y10
	VMULPD       Y8, Y10, Y10
	VSUBPD       Y10, Y1, Y1
	VBROADCASTSD (R9)(DX*8), Y11
	VMULPD       Y8, Y11, Y11
	VSUBPD       Y11, Y2, Y2
	VBROADCASTSD (R10)(DX*8), Y12
	VMULPD       Y8, Y12, Y12
	VSUBPD       Y12, Y3, Y3
	VBROADCASTSD (R11)(DX*8), Y13
	VMULPD       Y8, Y13, Y13
	VSUBPD       Y13, Y4, Y4
	VBROADCASTSD (R12)(DX*8), Y14
	VMULPD       Y8, Y14, Y14
	VSUBPD       Y14, Y5, Y5
	VBROADCASTSD (R13)(DX*8), Y9
	VMULPD       Y8, Y9, Y9
	VSUBPD       Y9, Y6, Y6
	VBROADCASTSD (BX)(DX*8), Y10
	VMULPD       Y8, Y10, Y10
	VSUBPD       Y10, Y7, Y7
	ADDQ         $32, SI
	INCQ         DX
	CMPQ         DX, CX
	JLT          loop

store:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
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

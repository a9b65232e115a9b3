#include "textflag.h"

// func sqdist4x8(q, p *float64, d, blocks int, out *float64, stride int)
//
// out[r*stride + 8*b + c] = Σ_f (q[8f+r] − p[8d·b + 8f + c])² for r < 4,
// c < 8 and b < blocks, the sum starting at +0 and adding one feature at
// a time in ascending f. Row r's entries of a block live in Y<2r> (columns
// 0–3) and Y<2r+1> (columns 4–7), one entry per lane; every difference is
// one VSUBPD, every square one VMULPD and every addition one VADDPD, so each
// lane rounds exactly as SqDist's d := a−b; s += d*d does. No FMA.
TEXT ·sqdist4x8(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ p+8(FP), DI
	MOVQ d+16(FP), CX
	MOVQ blocks+24(FP), BX
	MOVQ out+32(FP), AX
	MOVQ stride+40(FP), DX

	// The four output rows: AX, R8, R9, R10.
	SHLQ $3, DX
	LEAQ (AX)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	CMPQ BX, $0
	JLE  done

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R11 // q, feature by feature
	MOVQ   CX, R12 // features left
	CMPQ   R12, $0
	JLE    store

feature:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (R11), Y10
	VSUBPD       Y8, Y10, Y11
	VMULPD       Y11, Y11, Y11
	VADDPD       Y11, Y0, Y0
	VSUBPD       Y9, Y10, Y12
	VMULPD       Y12, Y12, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD 8(R11), Y10
	VSUBPD       Y8, Y10, Y11
	VMULPD       Y11, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VSUBPD       Y9, Y10, Y12
	VMULPD       Y12, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 16(R11), Y10
	VSUBPD       Y8, Y10, Y11
	VMULPD       Y11, Y11, Y11
	VADDPD       Y11, Y4, Y4
	VSUBPD       Y9, Y10, Y12
	VMULPD       Y12, Y12, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD 24(R11), Y10
	VSUBPD       Y8, Y10, Y11
	VMULPD       Y11, Y11, Y11
	VADDPD       Y11, Y6, Y6
	VSUBPD       Y9, Y10, Y12
	VMULPD       Y12, Y12, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, DI
	ADDQ         $64, R11
	DECQ         R12
	JNZ          feature

store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, (R10)
	VMOVUPD Y7, 32(R10)
	ADDQ    $64, AX
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	DECQ    BX
	JNZ     block

done:
	VZEROUPPER
	RET

// The constants of math.Exp's amd64 assembly ($GOROOT/src/math/exp_amd64.s),
// written as there and each repeated in four lanes.
#define LANES(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v

LANES(0, $1.4426950408889634073599246810018920)              // LOG2E
LANES(32, $0.69314718055966295651160180568695068359375)      // LN2U
LANES(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(96, $0.0625)
LANES(128, $2.4801587301587301587e-5)
LANES(160, $1.9841269841269841270e-4)
LANES(192, $1.3888888888888888889e-3)
LANES(224, $8.3333333333333333333e-3)
LANES(256, $4.1666666666666666667e-2)
LANES(288, $1.6666666666666666667e-1)
LANES(320, $0.5)
LANES(352, $1.0)
LANES(384, $2.0)
LANES(416, $-708.0)                // lowest argument the lanes take
LANES(448, $709.0)                 // highest argument the lanes take
LANES(480, $0x8000000000000000)    // sign bit
LANES(512, $1023)                  // exponent bias
GLOBL expc<>(SB), RODATA|NOPTR, $544

// func expNegDiv4(x *float64, n int, denom float64) (done int)
//
// For j = 0, 4, 8, … while j+4 ≤ n, sets x[j:j+4] to math.Exp(-x[j+l] /
// denom) lane by lane, repeating math.Exp's FMA path (label avxfma in
// exp_amd64.s) operation for operation: the same constants, the same fused
// and unfused steps in the same order, and the same rounding of the
// exponent. Every argument in [−708, 709] leaves that path with an exponent
// in [−1021, 1023], where math.Exp's final scaling is one multiply by a
// normal power of two. A block with a lane outside that range, NaN
// included, is left as it was and ends the call; done is the index of
// that block, or n rounded down to a multiple of 4.
TEXT ·expNegDiv4(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD denom+16(FP), Y5
	VMOVUPD      expc<>+480(SB), Y6
	XORQ         AX, AX

loop:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     done
	VMOVUPD (SI)(AX*8), Y0
	VXORPD  Y6, Y0, Y0
	VDIVPD  Y5, Y0, Y0

	// Every lane in [−708, 709], ordered.
	VCMPPD    $0x1D, expc<>+416(SB), Y0, Y1 // x >= -708
	VCMPPD    $0x12, expc<>+448(SB), Y0, Y2 // x <= 709
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	// k = round(x·LOG2E), as CVTSD2SL rounds; Y1 = float64(k).
	VMULPD     expc<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// x −= k·LN2U; x −= k·LN2L (fused); x ·= 1/16.
	VFNMADD231PD expc<>+32(SB), Y1, Y0
	VFNMADD231PD expc<>+64(SB), Y1, Y0
	VMULPD       expc<>+96(SB), Y0, Y0

	// The Taylor polynomial, one fused step per coefficient.
	VMOVUPD     expc<>+128(SB), Y1
	VFMADD213PD expc<>+160(SB), Y0, Y1
	VFMADD213PD expc<>+192(SB), Y0, Y1
	VFMADD213PD expc<>+224(SB), Y0, Y1
	VFMADD213PD expc<>+256(SB), Y0, Y1
	VFMADD213PD expc<>+288(SB), Y0, Y1
	VFMADD213PD expc<>+320(SB), Y0, Y1
	VFMADD213PD expc<>+352(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0

	// Four doublings x ← x·(x+2), each taking e^r−1 to e^2r−1; the last
	// is fused with the +1.
	VADDPD      expc<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc<>+384(SB), Y0, Y1
	VFMADD213PD expc<>+352(SB), Y1, Y0

	// Times 2^k.
	VPMOVSXDQ X2, Y3
	VPADDQ    expc<>+512(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

#include "textflag.h"

// AVX2 kernels for the network tier's dense per-step passes. Each
// computes, lane by lane, the same IEEE operations in the same order as
// the Go loop it replaces: separate rounded multiplies and adds (never
// VFMADD), and VCMPPD with predicate GE_OQ (0x1d), which is false when
// either operand is NaN, like Go's >=. Slices arrive with the lengths
// their Go callers checked.

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

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// ROWADDR turns the row index in AX into the address of element BX of
// that row: data (SI) + index·stride (R8, bytes) + BX·8.
#define ROWADDR \
	IMULQ R8, AX; \
	ADDQ  SI, AX; \
	LEAQ  (AX)(BX*8), AX

// func sumRowsAVX2(out, data []float64, cols int, active []int)
//
// out[j] = ((row0[j] + row1[j]) + row2[j]) + … over the rows listed in
// active (at least one), for every column j. Columns go in blocks of
// 32, eight accumulators wide, then of 4, then one at a time; each
// block loads its first row and adds the others in list order.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ data_base+24(FP), SI
	MOVQ cols+48(FP), R8
	SHLQ $3, R8
	MOVQ active_base+56(FP), R9
	MOVQ active_len+64(FP), R10
	XORQ BX, BX

block32:
	LEAQ 32(BX), AX
	CMPQ AX, DX
	JGT  block4
	MOVQ (R9), AX
	ROWADDR
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	MOVQ $1, CX

rows32:
	CMPQ CX, R10
	JGE  store32
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VADDPD 0(AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VADDPD 128(AX), Y4, Y4
	VADDPD 160(AX), Y5, Y5
	VADDPD 192(AX), Y6, Y6
	VADDPD 224(AX), Y7, Y7
	INCQ CX
	JMP  rows32

store32:
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	VMOVUPD Y4, 128(DI)(BX*8)
	VMOVUPD Y5, 160(DI)(BX*8)
	VMOVUPD Y6, 192(DI)(BX*8)
	VMOVUPD Y7, 224(DI)(BX*8)
	ADDQ $32, BX
	JMP  block32

block4:
	LEAQ 4(BX), AX
	CMPQ AX, DX
	JGT  block1
	MOVQ (R9), AX
	ROWADDR
	VMOVUPD (AX), Y0
	MOVQ    $1, CX

rows4:
	CMPQ CX, R10
	JGE  store4
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VADDPD (AX), Y0, Y0
	INCQ   CX
	JMP    rows4

store4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     block4

block1:
	CMPQ BX, DX
	JGE  done
	MOVQ (R9), AX
	ROWADDR
	VMOVSD (AX), X0
	MOVQ   $1, CX

rows1:
	CMPQ CX, R10
	JGE  store1
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VADDSD (AX), X0, X0
	INCQ   CX
	JMP    rows1

store1:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    block1

done:
	VZEROUPPER
	RET

// func sumRowsScaledAVX2(out, data []float64, cols int, active []int, s float64)
//
// out[j] = ((s·row0[j] + s·row1[j]) + s·row2[j]) + …, blocked like
// sumRowsAVX2. Each product is rounded, then added.
TEXT ·sumRowsScaledAVX2(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ data_base+24(FP), SI
	MOVQ cols+48(FP), R8
	SHLQ $3, R8
	MOVQ active_base+56(FP), R9
	MOVQ active_len+64(FP), R10
	XORQ BX, BX
	VBROADCASTSD s+80(FP), Y15

sblock32:
	LEAQ 32(BX), AX
	CMPQ AX, DX
	JGT  sblock4
	MOVQ (R9), AX
	ROWADDR
	VMULPD 0(AX), Y15, Y0
	VMULPD 32(AX), Y15, Y1
	VMULPD 64(AX), Y15, Y2
	VMULPD 96(AX), Y15, Y3
	VMULPD 128(AX), Y15, Y4
	VMULPD 160(AX), Y15, Y5
	VMULPD 192(AX), Y15, Y6
	VMULPD 224(AX), Y15, Y7
	MOVQ   $1, CX

srows32:
	CMPQ CX, R10
	JGE  sstore32
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VMULPD 0(AX), Y15, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(AX), Y15, Y8
	VADDPD Y8, Y1, Y1
	VMULPD 64(AX), Y15, Y8
	VADDPD Y8, Y2, Y2
	VMULPD 96(AX), Y15, Y8
	VADDPD Y8, Y3, Y3
	VMULPD 128(AX), Y15, Y8
	VADDPD Y8, Y4, Y4
	VMULPD 160(AX), Y15, Y8
	VADDPD Y8, Y5, Y5
	VMULPD 192(AX), Y15, Y8
	VADDPD Y8, Y6, Y6
	VMULPD 224(AX), Y15, Y8
	VADDPD Y8, Y7, Y7
	INCQ   CX
	JMP    srows32

sstore32:
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	VMOVUPD Y4, 128(DI)(BX*8)
	VMOVUPD Y5, 160(DI)(BX*8)
	VMOVUPD Y6, 192(DI)(BX*8)
	VMOVUPD Y7, 224(DI)(BX*8)
	ADDQ    $32, BX
	JMP     sblock32

sblock4:
	LEAQ 4(BX), AX
	CMPQ AX, DX
	JGT  sblock1
	MOVQ (R9), AX
	ROWADDR
	VMULPD (AX), Y15, Y0
	MOVQ   $1, CX

srows4:
	CMPQ CX, R10
	JGE  sstore4
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VMULPD (AX), Y15, Y8
	VADDPD Y8, Y0, Y0
	INCQ   CX
	JMP    srows4

sstore4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     sblock4

sblock1:
	CMPQ BX, DX
	JGE  sdone
	MOVQ (R9), AX
	ROWADDR
	VMULSD (AX), X15, X0
	MOVQ   $1, CX

srows1:
	CMPQ CX, R10
	JGE  sstore1
	MOVQ (R9)(CX*8), AX
	ROWADDR
	VMULSD (AX), X15, X8
	VADDSD X8, X0, X0
	INCQ   CX
	JMP    srows1

sstore1:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    sblock1

sdone:
	VZEROUPPER
	RET

// RELAX sets Y0 to rest (Y15) + (v[BX:BX+4] − rest)·decay (Y14), the
// membrane relaxed toward rest.
#define RELAX \
	VMOVUPD (DI)(BX*8), Y0; \
	VSUBPD  Y15, Y0, Y0; \
	VMULPD  Y14, Y0, Y0; \
	VADDPD  Y0, Y15, Y0

// REFRACTORY sets Y3 to all ones in the lanes whose refractory count
// (R8) is positive, and counts those lanes down (adding −1).
#define REFRACTORY \
	VMOVDQU  (R8)(BX*8), Y2; \
	VPCMPGTQ Y11, Y2, Y3; \
	VPADDQ   Y3, Y2, Y2; \
	VMOVDQU  Y2, (R8)(BX*8)

// DRIVE sets Y4 to the relaxed membrane plus drive (R9) · gain (R10)
// where the lane is not refractory and to the relaxed membrane where
// it is, and stores it back to v.
#define DRIVE \
	VMOVUPD   (R9)(BX*8), Y4; \
	VMULPD    (R10)(BX*8), Y4, Y4; \
	VADDPD    Y4, Y0, Y4; \
	VBLENDVPD Y3, Y0, Y4, Y4; \
	VMOVUPD   Y4, (DI)(BX*8)

// MASKBITS ORs the four spike decisions in Y5, less the refractory
// lanes (Y3), into the mask word R13 at bit CX, and moves BX and CX on
// by four neurons.
#define MASKBITS \
	VANDNPD   Y5, Y3, Y5; \
	VMOVMSKPD Y5, AX; \
	SHLQ      CX, AX; \
	ORQ       AX, R13; \
	ADDQ      $4, BX; \
	ADDQ      $4, CX

// func lifStepAVX2(v, theta []float64, refrac []int, drive, gain, threshScale []float64, rest, decay, thresh, thetaDecay float64, spikes []uint64)
//
// lifStepGeneric for the first len(v)&^3 neurons, four per iteration.
// Each mask word collects the bits of sixteen iterations in R13 and is
// stored once; the last word may be partial.
TEXT ·lifStepAVX2(SB), NOSPLIT, $0-200
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), DX
	ANDQ         $-4, DX
	MOVQ         theta_base+24(FP), SI
	MOVQ         refrac_base+48(FP), R8
	MOVQ         drive_base+72(FP), R9
	MOVQ         gain_base+96(FP), R10
	MOVQ         threshScale_base+120(FP), R11
	MOVQ         spikes_base+176(FP), R12
	VBROADCASTSD rest+144(FP), Y15
	VBROADCASTSD decay+152(FP), Y14
	VBROADCASTSD thresh+160(FP), Y13
	VBROADCASTSD thetaDecay+168(FP), Y12
	VPXOR        Y11, Y11, Y11
	XORQ         BX, BX

lword:
	CMPQ BX, DX
	JGE  ldone
	XORQ R13, R13
	XORQ CX, CX

lgroup:
	RELAX
	VMOVUPD (SI)(BX*8), Y1
	VMULPD  Y12, Y1, Y1
	VMOVUPD Y1, (SI)(BX*8)
	REFRACTORY
	DRIVE
	VADDPD  Y1, Y13, Y5
	VMULPD  (R11)(BX*8), Y5, Y5
	VCMPPD  $0x1d, Y5, Y4, Y5
	MASKBITS
	CMPQ    BX, DX
	JGE     lstore
	CMPQ    CX, $64
	JLT     lgroup

lstore:
	MOVQ R13, (R12)
	ADDQ $8, R12
	JMP  lword

ldone:
	VZEROUPPER
	RET

// func lifStepFrozenAVX2(v []float64, refrac []int, drive, gain, effThresh []float64, rest, decay float64, spikes []uint64)
//
// lifStepFrozenGeneric for the first len(v)&^3 neurons, with
// lifStepAVX2's loop. It writes only v, refrac and spikes.
TEXT ·lifStepFrozenAVX2(SB), NOSPLIT, $0-160
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), DX
	ANDQ         $-4, DX
	MOVQ         refrac_base+24(FP), R8
	MOVQ         drive_base+48(FP), R9
	MOVQ         gain_base+72(FP), R10
	MOVQ         effThresh_base+96(FP), R11
	MOVQ         spikes_base+136(FP), R12
	VBROADCASTSD rest+120(FP), Y15
	VBROADCASTSD decay+128(FP), Y14
	VPXOR        Y11, Y11, Y11
	XORQ         BX, BX

fword:
	CMPQ BX, DX
	JGE  fdone
	XORQ R13, R13
	XORQ CX, CX

fgroup:
	RELAX
	REFRACTORY
	DRIVE
	VCMPPD $0x1d, (R11)(BX*8), Y4, Y5
	MASKBITS
	CMPQ   BX, DX
	JGE    fstore
	CMPQ   CX, $64
	JLT    fgroup

fstore:
	MOVQ R13, (R12)
	ADDQ $8, R12
	JMP  fword

fdone:
	VZEROUPPER
	RET

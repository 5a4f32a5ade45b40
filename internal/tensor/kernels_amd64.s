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

// The masked kernels keep every unselected element's bits by blending
// the old value back with VBLENDVPD. The row kernels select columns by
// a bitmask (sel, in MaskWords' layout); the rescale selects the
// columns whose sum is nonzero. They take the columns in blocks of 16
// (four YMM registers), then of 4, and leave the last cols&3 to their
// Go loops; a block that selects no column is skipped. Each block
// loads its per-column operands and lane masks once and then sweeps
// its rows in order.

// lanebits holds bit k of a 16-bit selection in quadword k: ANDing a
// broadcast selection with it and comparing the result for equality
// gives each column's lane mask.
DATA lanebits<>+0(SB)/8, $0x1
DATA lanebits<>+8(SB)/8, $0x2
DATA lanebits<>+16(SB)/8, $0x4
DATA lanebits<>+24(SB)/8, $0x8
DATA lanebits<>+32(SB)/8, $0x10
DATA lanebits<>+40(SB)/8, $0x20
DATA lanebits<>+48(SB)/8, $0x40
DATA lanebits<>+56(SB)/8, $0x80
DATA lanebits<>+64(SB)/8, $0x100
DATA lanebits<>+72(SB)/8, $0x200
DATA lanebits<>+80(SB)/8, $0x400
DATA lanebits<>+88(SB)/8, $0x800
DATA lanebits<>+96(SB)/8, $0x1000
DATA lanebits<>+104(SB)/8, $0x2000
DATA lanebits<>+112(SB)/8, $0x4000
DATA lanebits<>+120(SB)/8, $0x8000
GLOBL lanebits<>(SB), RODATA|NOPTR, $128

// SELBITS sets AX to the selection bits of the block at column BX:
// word BX>>6 of sel (R11), shifted right by BX&63 (SHRQ masks the
// count), and width, $0xffff or $0xf. A block starts at a multiple of
// its width, so it never spans two words. ZF is set when the block
// selects nothing. It clobbers CX.
#define SELBITS(width) \
	MOVQ BX, AX; \
	SHRQ $6, AX; \
	MOVQ (R11)(AX*8), AX; \
	MOVQ BX, CX; \
	SHRQ CX, AX; \
	ANDQ width, AX

// LANE sets Yout to all ones in the lanes of the four columns whose
// bits, at quadword off of lanebits, are set in the selection
// broadcast in Y8.
#define LANE(off, out) \
	VPAND    lanebits<>+off(SB), Y8, out; \
	VPCMPEQQ lanebits<>+off(SB), out, out

// BROADCASTSEL broadcasts the selection bits in AX to every lane of Y8.
#define BROADCASTSEL \
	VMOVQ        AX, X8; \
	VPBROADCASTQ X8, Y8

// DEPRESS sets the four weights at off(AX) to (0 > w) ? 0 : w, where
// w = weight − d (yd), in the lanes ym selects: VMAXPD with +0 (Y15)
// as its first source keeps a NaN or −0 w, as Go's w < 0 does.
#define DEPRESS(off, yd, ym) \
	VMOVUPD   off(AX), Y8; \
	VSUBPD    yd, Y8, Y9; \
	VMAXPD    Y9, Y15, Y9; \
	VBLENDVPD ym, Y9, Y8, Y8; \
	VMOVUPD   Y8, off(AX)

// func depressRowsAVX2(data []float64, cols int, rows []int, d []float64, sel []uint64)
//
// depressRowsGeneric for the first cols&^3 columns.
TEXT ·depressRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ   data_base+0(FP), SI
	MOVQ   cols+24(FP), R8
	MOVQ   R8, DX
	ANDQ   $-4, DX
	SHLQ   $3, R8
	MOVQ   rows_base+32(FP), R9
	MOVQ   rows_len+40(FP), R10
	MOVQ   d_base+56(FP), DI
	MOVQ   sel_base+80(FP), R11
	VXORPD Y15, Y15, Y15
	XORQ   BX, BX

dblock16:
	LEAQ 16(BX), AX
	CMPQ AX, DX
	JGT  dblock4
	SELBITS($0xffff)
	JZ   dnext16
	BROADCASTSEL
	LANE(0, Y4)
	LANE(32, Y5)
	LANE(64, Y6)
	LANE(96, Y7)
	VMOVUPD 0(DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	XORQ    CX, CX

drows16:
	CMPQ CX, R10
	JGE  dnext16
	MOVQ (R9)(CX*8), AX
	ROWADDR
	DEPRESS(0, Y0, Y4)
	DEPRESS(32, Y1, Y5)
	DEPRESS(64, Y2, Y6)
	DEPRESS(96, Y3, Y7)
	INCQ CX
	JMP  drows16

dnext16:
	ADDQ $16, BX
	JMP  dblock16

dblock4:
	LEAQ 4(BX), AX
	CMPQ AX, DX
	JGT  ddone
	SELBITS($0xf)
	JZ   dnext4
	BROADCASTSEL
	LANE(0, Y4)
	VMOVUPD (DI)(BX*8), Y0
	XORQ    CX, CX

drows4:
	CMPQ CX, R10
	JGE  dnext4
	MOVQ (R9)(CX*8), AX
	ROWADDR
	DEPRESS(0, Y0, Y4)
	INCQ CX
	JMP  drows4

dnext4:
	ADDQ $4, BX
	JMP  dblock4

ddone:
	VZEROUPPER
	RET

// POTENTIATE sets the four weights at off(AX) to (wmax < w) ? wmax : w,
// where w = weight + the row's addend (Y13), in the lanes ym selects:
// VMINPD with wmax (Y14) as its first source keeps a NaN w, as Go's
// w > wmax does.
#define POTENTIATE(off, ym) \
	VMOVUPD   off(AX), Y8; \
	VADDPD    Y13, Y8, Y9; \
	VMINPD    Y9, Y14, Y9; \
	VBLENDVPD ym, Y9, Y8, Y8; \
	VMOVUPD   Y8, off(AX)

// func potentiateRowsAVX2(data []float64, cols int, rows []int, a []float64, wmax float64, sel []uint64)
//
// potentiateRowsGeneric for the first cols&^3 columns.
TEXT ·potentiateRowsAVX2(SB), NOSPLIT, $0-112
	MOVQ         data_base+0(FP), SI
	MOVQ         cols+24(FP), R8
	MOVQ         R8, DX
	ANDQ         $-4, DX
	SHLQ         $3, R8
	MOVQ         rows_base+32(FP), R9
	MOVQ         rows_len+40(FP), R10
	MOVQ         a_base+56(FP), DI
	VBROADCASTSD wmax+80(FP), Y14
	MOVQ         sel_base+88(FP), R11
	XORQ         BX, BX

pblock16:
	LEAQ 16(BX), AX
	CMPQ AX, DX
	JGT  pblock4
	SELBITS($0xffff)
	JZ   pnext16
	BROADCASTSEL
	LANE(0, Y4)
	LANE(32, Y5)
	LANE(64, Y6)
	LANE(96, Y7)
	XORQ CX, CX

prows16:
	CMPQ         CX, R10
	JGE          pnext16
	VBROADCASTSD (DI)(CX*8), Y13
	MOVQ         (R9)(CX*8), AX
	ROWADDR
	POTENTIATE(0, Y4)
	POTENTIATE(32, Y5)
	POTENTIATE(64, Y6)
	POTENTIATE(96, Y7)
	INCQ CX
	JMP  prows16

pnext16:
	ADDQ $16, BX
	JMP  pblock16

pblock4:
	LEAQ 4(BX), AX
	CMPQ AX, DX
	JGT  pdone
	SELBITS($0xf)
	JZ   pnext4
	BROADCASTSEL
	LANE(0, Y4)
	XORQ CX, CX

prows4:
	CMPQ         CX, R10
	JGE          pnext4
	VBROADCASTSD (DI)(CX*8), Y13
	MOVQ         (R9)(CX*8), AX
	ROWADDR
	POTENTIATE(0, Y4)
	INCQ CX
	JMP  prows4

pnext4:
	ADDQ $4, BX
	JMP  pblock4

pdone:
	VZEROUPPER
	RET

// func colSumsAVX2(s, data []float64, rows, cols int)
//
// s[j] = ((+0 + row0[j]) + row1[j]) + … for every column j. Columns go
// in blocks of 32, eight accumulators wide, then of 4, then one at a
// time; each block starts its accumulators at +0 and adds the rows in
// ascending order, a pointer stepping one row stride (R8) at a time.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-64
	MOVQ s_base+0(FP), DI
	MOVQ data_base+24(FP), SI
	MOVQ rows+48(FP), R10
	MOVQ cols+56(FP), DX
	MOVQ DX, R8
	SHLQ $3, R8
	XORQ BX, BX

cblock32:
	LEAQ   32(BX), AX
	CMPQ   AX, DX
	JGT    cblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(BX*8), AX
	MOVQ   R10, CX

crows32:
	TESTQ  CX, CX
	JZ     cstore32
	VADDPD 0(AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VADDPD 128(AX), Y4, Y4
	VADDPD 160(AX), Y5, Y5
	VADDPD 192(AX), Y6, Y6
	VADDPD 224(AX), Y7, Y7
	ADDQ   R8, AX
	DECQ   CX
	JMP    crows32

cstore32:
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	VMOVUPD Y4, 128(DI)(BX*8)
	VMOVUPD Y5, 160(DI)(BX*8)
	VMOVUPD Y6, 192(DI)(BX*8)
	VMOVUPD Y7, 224(DI)(BX*8)
	ADDQ    $32, BX
	JMP     cblock32

cblock4:
	LEAQ   4(BX), AX
	CMPQ   AX, DX
	JGT    cblock1
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(BX*8), AX
	MOVQ   R10, CX

crows4:
	TESTQ  CX, CX
	JZ     cstore4
	VADDPD (AX), Y0, Y0
	ADDQ   R8, AX
	DECQ   CX
	JMP    crows4

cstore4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     cblock4

cblock1:
	CMPQ   BX, DX
	JGE    cdone
	VXORPD X0, X0, X0
	LEAQ   (SI)(BX*8), AX
	MOVQ   R10, CX

crows1:
	TESTQ  CX, CX
	JZ     cstore1
	VADDSD (AX), X0, X0
	ADDQ   R8, AX
	DECQ   CX
	JMP    crows1

cstore1:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    cblock1

cdone:
	VZEROUPPER
	RET

// SCALE multiplies the four weights at off(AX) by the factors in yf in
// the lanes ym selects.
#define SCALE(off, yf, ym) \
	VMOVUPD   off(AX), Y8; \
	VMULPD    yf, Y8, Y9; \
	VBLENDVPD ym, Y9, Y8, Y8; \
	VMOVUPD   Y8, off(AX)

// NONZERO sets ym to all ones in the lanes where the sum in ys is not
// zero — VCMPPD's NEQ_UQ (4), true for a NaN sum like Go's !(s == 0) —
// and turns ys into the factors target (Y14) / sum.
#define NONZERO(ys, ym) \
	VCMPPD $4, Y15, ys, ym; \
	VDIVPD ys, Y14, ys

// func scaleColsAVX2(data []float64, rows, cols int, s []float64, target float64)
//
// scaleColsGeneric for the first cols&^3 columns: in each block the
// lanes with a nonzero sum are selected, their factors target/sum are
// divided once, and the rows are swept in ascending order, a pointer
// stepping one row stride (R8) at a time.
TEXT ·scaleColsAVX2(SB), NOSPLIT, $0-72
	MOVQ         data_base+0(FP), SI
	MOVQ         rows+24(FP), R10
	MOVQ         cols+32(FP), DX
	MOVQ         DX, R8
	SHLQ         $3, R8
	ANDQ         $-4, DX
	MOVQ         s_base+40(FP), DI
	VBROADCASTSD target+64(FP), Y14
	VXORPD       Y15, Y15, Y15
	XORQ         BX, BX

nblock16:
	LEAQ      16(BX), AX
	CMPQ      AX, DX
	JGT       nblock4
	VMOVUPD   0(DI)(BX*8), Y0
	VMOVUPD   32(DI)(BX*8), Y1
	VMOVUPD   64(DI)(BX*8), Y2
	VMOVUPD   96(DI)(BX*8), Y3
	NONZERO(Y0, Y4)
	NONZERO(Y1, Y5)
	NONZERO(Y2, Y6)
	NONZERO(Y3, Y7)
	VORPD     Y4, Y5, Y8
	VORPD     Y6, Y8, Y8
	VORPD     Y7, Y8, Y8
	VMOVMSKPD Y8, AX
	TESTQ     AX, AX
	JZ        nnext16
	LEAQ      (SI)(BX*8), AX
	MOVQ      R10, CX

nrows16:
	TESTQ CX, CX
	JZ    nnext16
	SCALE(0, Y0, Y4)
	SCALE(32, Y1, Y5)
	SCALE(64, Y2, Y6)
	SCALE(96, Y3, Y7)
	ADDQ  R8, AX
	DECQ  CX
	JMP   nrows16

nnext16:
	ADDQ $16, BX
	JMP  nblock16

nblock4:
	LEAQ      4(BX), AX
	CMPQ      AX, DX
	JGT       ndone
	VMOVUPD   (DI)(BX*8), Y0
	NONZERO(Y0, Y4)
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	JZ        nnext4
	LEAQ      (SI)(BX*8), AX
	MOVQ      R10, CX

nrows4:
	TESTQ CX, CX
	JZ    nnext4
	SCALE(0, Y0, Y4)
	ADDQ  R8, AX
	DECQ  CX
	JMP   nrows4

nnext4:
	ADDQ $4, BX
	JMP  nblock4

ndone:
	VZEROUPPER
	RET

#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The projection kernel. One output row at a time, a block of 16, 8 or 4
// output columns is held in YMM accumulators across the whole k loop and
// stored once. Per k pair and lane it computes exactly what
// mulRangeGeneric's inner statement does,
//
//	acc += (a0·b0) + (a1·b1)
//
// as VMULPD, VMULPD, VADDPD, VADDPD: two rounded products, their rounded
// sum, one rounded accumulate. No FMA instruction may ever appear here: a
// fused multiply-add skips a rounding and changes labels. The generic
// loop's "a0 == 0 && a1 == 0" skip is not reproduced: an accumulator that
// starts at +0 is never -0, so adding the ±0 a skipped pair would contribute
// changes nothing (for finite b; 0·Inf would differ, and projection matrices
// are finite).
//
// A column count that is not a multiple of the block widths is covered by
// sliding the last block back so that it ends at column c (the caller
// guarantees c >= 4). The overlapped columns are computed twice by the same
// instructions on the same inputs and stored twice with the same bits.
//
// Registers: DI dst row, SI a row, BX b, R8 k pairs, R9 row stride of b and
// dst in bytes, R10 row stride of a in bytes, R11 c, R12 byte offset of the
// current column block, R13 columns still to cover, AX/DX/CX walk a, b and
// the pair count inside a block. Y12/Y13 hold the broadcast a0/a1.

#define PAIR_HEAD \
	VBROADCASTSD (AX), Y12; \
	VBROADCASTSD 8(AX), Y13

#define MAC(off, acc, t0, t1) \
	VMULPD off(DX), Y12, t0; \
	VMULPD off(DX)(R9*1), Y13, t1; \
	VADDPD t1, t0, t0; \
	VADDPD t0, acc, acc

#define PAIR_NEXT(loop) \
	ADDQ $16, AX; \
	LEAQ (DX)(R9*2), DX; \
	DECQ CX; \
	JNZ  loop

#define BLOCK_HEAD \
	MOVQ SI, AX; \
	LEAQ (BX)(R12*1), DX; \
	MOVQ R8, CX

// func mulRowsAVX2(dst, a, b *float64, rows, n, c int)
TEXT ·mulRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+32(FP), R8
	MOVQ c+40(FP), R11
	MOVQ R8, R10
	SHLQ $3, R10
	SHRQ $1, R8
	MOVQ R11, R9
	SHLQ $3, R9

row:
	XORQ R12, R12
	MOVQ R11, R13

next:
	CMPQ R13, $16
	JGE  blk16
	CMPQ R13, $8
	JGT  slide16
	JEQ  blk8
	CMPQ R13, $4
	JGT  slide8
	JEQ  blk4
	TESTQ R13, R13
	JZ   rowdone
	LEAQ -32(R9), R12 // 1..3 columns left: the 4 columns ending at c
	MOVQ $4, R13
	JMP  blk4

slide16: // 9..15 columns left
	CMPQ R11, $16
	JLT  blk8
	LEAQ -128(R9), R12
	MOVQ $16, R13
	JMP  blk16

slide8: // 5..7 columns left
	CMPQ R11, $8
	JLT  blk4
	LEAQ -64(R9), R12
	MOVQ $8, R13
	JMP  blk8

blk16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	BLOCK_HEAD
k16:
	PAIR_HEAD
	MAC(0, Y0, Y4, Y5)
	MAC(32, Y1, Y6, Y7)
	MAC(64, Y2, Y8, Y9)
	MAC(96, Y3, Y10, Y11)
	PAIR_NEXT(k16)
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)
	ADDQ $128, R12
	SUBQ $16, R13
	JMP  next

blk8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	BLOCK_HEAD
k8:
	PAIR_HEAD
	MAC(0, Y0, Y4, Y5)
	MAC(32, Y1, Y6, Y7)
	PAIR_NEXT(k8)
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	ADDQ $64, R12
	SUBQ $8, R13
	JMP  next

blk4:
	VXORPD Y0, Y0, Y0
	BLOCK_HEAD
k4:
	PAIR_HEAD
	MAC(0, Y0, Y4, Y5)
	PAIR_NEXT(k4)
	VMOVUPD Y0, (DI)(R12*1)
	ADDQ $32, R12
	SUBQ $4, R13
	JMP  next

rowdone:
	ADDQ R9, DI
	ADDQ R10, SI
	DECQ rows+24(FP)
	JNZ  row
	VZEROUPPER
	RET

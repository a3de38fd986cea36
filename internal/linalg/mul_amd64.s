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

// The packed projection kernel, AVX-512F only. b arrives cut into column
// panels by Pack: up to 48 columns each, zero-padded to whole 8-lane
// vectors, row-major inside the panel, 64-byte aligned. One output row at a
// time and one panel at a time, the panel's V ≤ 6 vectors stay in ZMM
// accumulators across the whole k loop, so a row of a is broadcast once per
// panel (once per row at the fit's 45 columns). Per k pair and lane the
// arithmetic is mulRowsAVX2's — VMULPD, VMULPD, VADDPD, VADDPD, no FMA — and
// an odd last k is acc += a·b, VMULPD then VADDPD, which is the portable
// loop's tail statement. (Its "a == 0" skip adds nothing here either: the
// accumulator is never −0.) The pad lanes compute zeros, or NaN from an
// infinite a, and are never stored: the store of a panel's last vector is
// masked to the columns left (K1), so no float past column c is written.
//
// When mins is not nil, each stored row also widens mins[0:c]/maxs[0:c]:
// VMINPD m, acc, t is "acc < m ? acc : m" lane by lane, which is
// WidenRanges' "if v < mins[j] { mins[j] = v }" — a NaN acc compares false
// and keeps m, and ±0 against ∓0 keeps m — and VMAXPD likewise. The range
// of the last vector is loaded and stored under K1 too.
//
// Registers: DI dst row, SI a row, R12 the current panel of b, R13 columns
// still to cover in this row, R10 byte offset of the panel's first column,
// R9 panel row size in bytes (V·64), R8 k pairs, R15 n, BX/R11 mins and
// maxs (BX nil: no ranges); AX/DX/CX walk a, the panel and the pair count.
// Z0–Z5 accumulate, Z30/Z31 hold the broadcast a0/a1, Z16–Z29 are
// temporaries. Only AVX512F instructions (and KMOVW) appear.

#define ZPAIR_HEAD \
	VBROADCASTSD (AX), Z30; \
	VBROADCASTSD 8(AX), Z31

// ZMAC's off1 is off plus the panel's row size, a constant in each block:
// the k+1 row is reached by displacement alone, since an index register
// would unlaminate the micro-fused load of every second VMULPD.
#define ZMAC(off, off1, acc, t0, t1) \
	VMULPD off(DX), Z30, t0; \
	VMULPD off1(DX), Z31, t1; \
	VADDPD t1, t0, t0; \
	VADDPD t0, acc, acc

#define ZPAIR_NEXT(loop, pair) \
	ADDQ $16, AX; \
	ADDQ $pair, DX; \
	DECQ CX; \
	JNZ  loop

// ZPANEL_HEAD points AX at the row of a, DX at the panel and CX at the
// pair count, and skips the k loop when there are no pairs (n = 1).
#define ZPANEL_HEAD(stride, odd) \
	MOVQ $stride, R9; \
	MOVQ SI, AX; \
	MOVQ R12, DX; \
	MOVQ R8, CX; \
	TESTQ CX, CX; \
	JZ   odd

#define ZODD_HEAD(store) \
	TESTQ $1, R15; \
	JZ    store; \
	VBROADCASTSD (AX), Z30

#define ZODD(off, acc, t) \
	VMULPD off(DX), Z30, t; \
	VADDPD t, acc, acc

#define ZRANGE_HEAD(done) \
	TESTQ BX, BX; \
	JZ    done

#define ZRANGE(off, acc) \
	VMINPD off(BX)(R10*1), acc, Z28; \
	VMOVUPD Z28, off(BX)(R10*1); \
	VMAXPD off(R11)(R10*1), acc, Z29; \
	VMOVUPD Z29, off(R11)(R10*1)

#define ZRANGE_K1(off, acc) \
	VMOVUPD off(BX)(R10*1), K1, Z28; \
	VMINPD Z28, acc, Z28; \
	VMOVUPD Z28, K1, off(BX)(R10*1); \
	VMOVUPD off(R11)(R10*1), K1, Z29; \
	VMAXPD Z29, acc, Z29; \
	VMOVUPD Z29, K1, off(R11)(R10*1)

// func mulRowsAVX512(dst, a, b *float64, rows, n, c int, mins, maxs *float64)
TEXT ·mulRowsAVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ mins+48(FP), BX
	MOVQ maxs+56(FP), R11
	MOVQ n+32(FP), R15
	MOVQ R15, R8
	SHRQ $1, R8

zrow:
	MOVQ b+16(FP), R12
	MOVQ c+40(FP), R13
	XORQ R10, R10

zpanel:
	MOVL $0xFF, DX
	CMPQ R13, $48
	JGE  zfull
	MOVQ R13, CX // the last panel: K1 keeps its c mod 8 lanes (all 8 if 0)
	NEGQ CX
	ANDQ $7, CX
	SHRL CX, DX
	KMOVW DX, K1
	MOVQ R13, CX
	ADDQ $7, CX
	SHRQ $3, CX // vectors in the panel, 1..6
	CMPQ CX, $3
	JLT  zlow
	JEQ  zp3
	CMPQ CX, $5
	JLT  zp4
	JEQ  zp5
	JMP  zp6

zlow:
	CMPQ CX, $1
	JEQ  zp1
	JMP  zp2

zfull:
	KMOVW DX, K1

zp6:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	ZPANEL_HEAD(384, zo6)
zk6:
	ZPAIR_HEAD
	ZMAC(0, 384, Z0, Z16, Z17)
	ZMAC(64, 448, Z1, Z18, Z19)
	ZMAC(128, 512, Z2, Z20, Z21)
	ZMAC(192, 576, Z3, Z22, Z23)
	ZMAC(256, 640, Z4, Z24, Z25)
	ZMAC(320, 704, Z5, Z26, Z27)
	ZPAIR_NEXT(zk6, 768)
zo6:
	ZODD_HEAD(zs6)
	ZODD(0, Z0, Z16)
	ZODD(64, Z1, Z17)
	ZODD(128, Z2, Z18)
	ZODD(192, Z3, Z19)
	ZODD(256, Z4, Z20)
	ZODD(320, Z5, Z21)
zs6:
	VMOVUPD Z0, (DI)(R10*1)
	VMOVUPD Z1, 64(DI)(R10*1)
	VMOVUPD Z2, 128(DI)(R10*1)
	VMOVUPD Z3, 192(DI)(R10*1)
	VMOVUPD Z4, 256(DI)(R10*1)
	VMOVUPD Z5, K1, 320(DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE(0, Z0)
	ZRANGE(64, Z1)
	ZRANGE(128, Z2)
	ZRANGE(192, Z3)
	ZRANGE(256, Z4)
	ZRANGE_K1(320, Z5)
	JMP  znext

zp5:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	ZPANEL_HEAD(320, zo5)
zk5:
	ZPAIR_HEAD
	ZMAC(0, 320, Z0, Z16, Z17)
	ZMAC(64, 384, Z1, Z18, Z19)
	ZMAC(128, 448, Z2, Z20, Z21)
	ZMAC(192, 512, Z3, Z22, Z23)
	ZMAC(256, 576, Z4, Z24, Z25)
	ZPAIR_NEXT(zk5, 640)
zo5:
	ZODD_HEAD(zs5)
	ZODD(0, Z0, Z16)
	ZODD(64, Z1, Z17)
	ZODD(128, Z2, Z18)
	ZODD(192, Z3, Z19)
	ZODD(256, Z4, Z20)
zs5:
	VMOVUPD Z0, (DI)(R10*1)
	VMOVUPD Z1, 64(DI)(R10*1)
	VMOVUPD Z2, 128(DI)(R10*1)
	VMOVUPD Z3, 192(DI)(R10*1)
	VMOVUPD Z4, K1, 256(DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE(0, Z0)
	ZRANGE(64, Z1)
	ZRANGE(128, Z2)
	ZRANGE(192, Z3)
	ZRANGE_K1(256, Z4)
	JMP  znext

zp4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	ZPANEL_HEAD(256, zo4)
zk4:
	ZPAIR_HEAD
	ZMAC(0, 256, Z0, Z16, Z17)
	ZMAC(64, 320, Z1, Z18, Z19)
	ZMAC(128, 384, Z2, Z20, Z21)
	ZMAC(192, 448, Z3, Z22, Z23)
	ZPAIR_NEXT(zk4, 512)
zo4:
	ZODD_HEAD(zs4)
	ZODD(0, Z0, Z16)
	ZODD(64, Z1, Z17)
	ZODD(128, Z2, Z18)
	ZODD(192, Z3, Z19)
zs4:
	VMOVUPD Z0, (DI)(R10*1)
	VMOVUPD Z1, 64(DI)(R10*1)
	VMOVUPD Z2, 128(DI)(R10*1)
	VMOVUPD Z3, K1, 192(DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE(0, Z0)
	ZRANGE(64, Z1)
	ZRANGE(128, Z2)
	ZRANGE_K1(192, Z3)
	JMP  znext

zp3:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	ZPANEL_HEAD(192, zo3)
zk3:
	ZPAIR_HEAD
	ZMAC(0, 192, Z0, Z16, Z17)
	ZMAC(64, 256, Z1, Z18, Z19)
	ZMAC(128, 320, Z2, Z20, Z21)
	ZPAIR_NEXT(zk3, 384)
zo3:
	ZODD_HEAD(zs3)
	ZODD(0, Z0, Z16)
	ZODD(64, Z1, Z17)
	ZODD(128, Z2, Z18)
zs3:
	VMOVUPD Z0, (DI)(R10*1)
	VMOVUPD Z1, 64(DI)(R10*1)
	VMOVUPD Z2, K1, 128(DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE(0, Z0)
	ZRANGE(64, Z1)
	ZRANGE_K1(128, Z2)
	JMP  znext

zp2:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	ZPANEL_HEAD(128, zo2)
zk2:
	ZPAIR_HEAD
	ZMAC(0, 128, Z0, Z16, Z17)
	ZMAC(64, 192, Z1, Z18, Z19)
	ZPAIR_NEXT(zk2, 256)
zo2:
	ZODD_HEAD(zs2)
	ZODD(0, Z0, Z16)
	ZODD(64, Z1, Z17)
zs2:
	VMOVUPD Z0, (DI)(R10*1)
	VMOVUPD Z1, K1, 64(DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE(0, Z0)
	ZRANGE_K1(64, Z1)
	JMP  znext

zp1:
	VPXORQ Z0, Z0, Z0
	ZPANEL_HEAD(64, zo1)
zk1:
	ZPAIR_HEAD
	ZMAC(0, 64, Z0, Z16, Z17)
	ZPAIR_NEXT(zk1, 128)
zo1:
	ZODD_HEAD(zs1)
	ZODD(0, Z0, Z16)
zs1:
	VMOVUPD Z0, K1, (DI)(R10*1)
	ZRANGE_HEAD(znext)
	ZRANGE_K1(0, Z0)

znext: // the next panel starts n rows of this one's width further on
	MOVQ R15, CX
	IMULQ R9, CX
	ADDQ CX, R12
	ADDQ R9, R10
	MOVQ R9, CX
	SHRQ $3, CX
	SUBQ CX, R13
	JG   zpanel

	MOVQ c+40(FP), CX
	LEAQ (DI)(CX*8), DI
	LEAQ (SI)(R15*8), SI
	DECQ rows+24(FP)
	JNZ  zrow
	VZEROUPPER
	RET

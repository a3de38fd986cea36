#include "textflag.h"

// The bin kernel, AVX-512F only. Sixteen columns of a row per step, as two
// 8-lane halves, with per lane exactly binRowsGeneric's arithmetic:
//
//	v = (x − lo)·iw       VSUBPD, then VMULPD: two roundings, no FMA
//	k = v ≥ 0             VCMPPD GE_OQ: false for NaN, true for −0
//	v = min(v, nbins−1)   VMINPD
//	b = k ? trunc(v) : 0  VCVTTPD2DQ, zeroing under k
//
// which is the generic loop's branches for every v: v ≥ nbins and v in
// [nbins−1, nbins) both give nbins−1, v in [0, nbins−1) truncates, and
// NaN, negative values and −Inf give 0. The two halves' eight int32s are
// joined with VINSERTI64X4 and narrowed to sixteen uint16s by one VPMOVDW
// to memory (narrowing a YMM needs AVX512VL, which this kernel does not
// assume). The last cols mod 16 columns of a row run the same step under
// masks: the loads of rows, lo and iw are masked (a masked-off element
// never faults) and so is the store, so no uint16 past the row is written.
//
// Registers: DI dst row, SI rows row, R8 rows left, R9 cols, BX lo, R11
// iw, R12 whole 16-column steps per row, R15 cols mod 16, R13/R14 the
// dst/rows row strides in bytes, R10 the column, CX the step count.
// Z30 holds nbins−1, Z31 zero. K6/K7 select all 8 lanes / 16 words, K1/K2
// the tail's lanes in each half and K3 its words; K4/K5 are the v ≥ 0
// masks. Only AVX512F instructions (and KMOVW) appear.

#define BIN16(m0, m1, mw) \
	VMOVUPD.Z (SI)(R10*8), m0, Z0; \
	VMOVUPD.Z 64(SI)(R10*8), m1, Z1; \
	VSUBPD.Z (BX)(R10*8), Z0, m0, Z0; \
	VSUBPD.Z 64(BX)(R10*8), Z1, m1, Z1; \
	VMULPD.Z (R11)(R10*8), Z0, m0, Z0; \
	VMULPD.Z 64(R11)(R10*8), Z1, m1, Z1; \
	VCMPPD $0x1d, Z31, Z0, m0, K4; \
	VCMPPD $0x1d, Z31, Z1, m1, K5; \
	VMINPD Z30, Z0, Z0; \
	VMINPD Z30, Z1, Z1; \
	VCVTTPD2DQ.Z Z0, K4, Y0; \
	VCVTTPD2DQ.Z Z1, K5, Y1; \
	VINSERTI64X4 $1, Y1, Z0, Z0; \
	VPMOVDW Z0, mw, (DI)(R10*2)

// func binRowsAVX512(dst *uint16, rows *float64, n, cols int, lo, iw *float64, top float64)
TEXT ·binRowsAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ lo+32(FP), BX
	MOVQ iw+40(FP), R11
	VBROADCASTSD top+48(FP), Z30
	VPXORQ Z31, Z31, Z31

	MOVL $0xFF, AX
	KMOVW AX, K6
	MOVL $0xFFFF, AX
	KMOVW AX, K7
	MOVQ R9, R15
	ANDQ $15, R15
	MOVL $1, AX
	MOVQ R15, CX
	SHLL CX, AX
	DECL AX      // (1 << cols mod 16) − 1: the tail's words
	KMOVW AX, K3
	MOVL AX, DX
	ANDL $0xFF, DX
	KMOVW DX, K1
	SHRL $8, AX
	KMOVW AX, K2
	MOVQ R9, R12
	SHRQ $4, R12
	LEAQ (R9)(R9*1), R13
	MOVQ R9, R14
	SHLQ $3, R14

row:
	XORQ R10, R10
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   tail

full:
	BIN16(K6, K6, K7)
	ADDQ $16, R10
	DECQ CX
	JNZ  full

tail:
	TESTQ R15, R15
	JZ   next
	BIN16(K1, K2, K3)

next:
	ADDQ R13, DI
	ADDQ R14, SI
	DECQ R8
	JNZ  row
	VZEROUPPER
	RET

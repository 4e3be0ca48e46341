//go:build amd64 && !purego

// Eight ChaCha20 blocks at once with AVX2 (chacha_amd64.go).
//
// Layout: row i of the 4×4 state is one ymm register of eight dwords,
// lane k holding word i of block k; the counter row adds 0…7 across the
// lanes.  Rows 4-15 live in Y4-Y15.  Rows 0-3 (the "a" words) live in
// the 128-byte frame: each quarter-round pair loads two of them into
// Y0/Y1, and Y2/Y3 are the shift temporaries of the rotations by 12
// and 7.  The rotations by 16 and 8 move whole bytes, so VPSHUFB does
// them in one instruction.  After the rounds each group of four rows
// goes through a 4×4 dword/qword unpack transpose, which leaves block
// k's four words in the low lane and block k+4's in the high lane, and
// VPERM2I128 pairs two groups into 32-byte stores.
//
// Everything is add-rotate-xor on public-shape data: no branch or
// address depends on the key or the keystream.

#include "textflag.h"

DATA rot16<>+0(SB)/8, $0x0504070601000302
DATA rot16<>+8(SB)/8, $0x0D0C0F0E09080B0A
DATA rot16<>+16(SB)/8, $0x0504070601000302
DATA rot16<>+24(SB)/8, $0x0D0C0F0E09080B0A
GLOBL rot16<>(SB), (NOPTR+RODATA), $32

DATA rot8<>+0(SB)/8, $0x0605040702010003
DATA rot8<>+8(SB)/8, $0x0E0D0C0F0A09080B
DATA rot8<>+16(SB)/8, $0x0605040702010003
DATA rot8<>+24(SB)/8, $0x0E0D0C0F0A09080B
GLOBL rot8<>(SB), (NOPTR+RODATA), $32

// Lane k's counter offset, k = 0…7.
DATA lanes<>+0(SB)/8, $0x0000000100000000
DATA lanes<>+8(SB)/8, $0x0000000300000002
DATA lanes<>+16(SB)/8, $0x0000000500000004
DATA lanes<>+24(SB)/8, $0x0000000700000006
GLOBL lanes<>(SB), (NOPTR+RODATA), $32

// Two quarter rounds side by side: (A0, B0, C0, D0) and (A1, B1, C1, D1),
// with A0 and A1 frame slots and the rest registers.
#define QR2(A0, A1, B0, B1, C0, C1, D0, D1) \
	VPADDD A0, B0, Y0; \
	VPADDD A1, B1, Y1; \
	VPXOR Y0, D0, D0; \
	VPXOR Y1, D1, D1; \
	VPSHUFB rot16<>(SB), D0, D0; \
	VPSHUFB rot16<>(SB), D1, D1; \
	VPADDD D0, C0, C0; \
	VPADDD D1, C1, C1; \
	VPXOR C0, B0, B0; \
	VPXOR C1, B1, B1; \
	VPSLLD $12, B0, Y2; \
	VPSLLD $12, B1, Y3; \
	VPSRLD $20, B0, B0; \
	VPSRLD $20, B1, B1; \
	VPOR Y2, B0, B0; \
	VPOR Y3, B1, B1; \
	VPADDD B0, Y0, Y0; \
	VPADDD B1, Y1, Y1; \
	VPXOR Y0, D0, D0; \
	VPXOR Y1, D1, D1; \
	VPSHUFB rot8<>(SB), D0, D0; \
	VPSHUFB rot8<>(SB), D1, D1; \
	VPADDD D0, C0, C0; \
	VPADDD D1, C1, C1; \
	VPXOR C0, B0, B0; \
	VPXOR C1, B1, B1; \
	VPSLLD $7, B0, Y2; \
	VPSLLD $7, B1, Y3; \
	VPSRLD $25, B0, B0; \
	VPSRLD $25, B1, B1; \
	VPOR Y2, B0, B0; \
	VPOR Y3, B1, B1; \
	VMOVDQU Y0, A0; \
	VMOVDQU Y1, A1

// Transpose rows R0-R3 (one group of four words) in place: afterwards
// R0 holds blocks 0|4, R1 blocks 1|5, R2 blocks 2|6 and R3 blocks 3|7.
#define TRANSPOSE4(R0, R1, R2, R3) \
	VPUNPCKLDQ R1, R0, Y0; \
	VPUNPCKHDQ R1, R0, Y1; \
	VPUNPCKLDQ R3, R2, Y2; \
	VPUNPCKHDQ R3, R2, Y3; \
	VPUNPCKLQDQ Y2, Y0, R0; \
	VPUNPCKHQDQ Y2, Y0, R1; \
	VPUNPCKLQDQ Y3, Y1, R2; \
	VPUNPCKHQDQ Y3, Y1, R3

// Store two transposed groups, LO then HI, as 32 bytes of block k at
// KLO and of block k+4 at KHI.
#define STORE2(LO, HI, KLO, KHI) \
	VPERM2I128 $0x20, HI, LO, Y0; \
	VMOVDQU Y0, KLO; \
	VPERM2I128 $0x31, HI, LO, Y0; \
	VMOVDQU Y0, KHI

// Add input word W (a byte offset into the state) to row R.
#define ADDIN(W, R) \
	VPBROADCASTD W(SI), Y0; \
	VPADDD Y0, R, R

// func chacha20Blocks8AVX2(state *[16]uint32, out *byte)
TEXT ·chacha20Blocks8AVX2(SB), NOSPLIT, $128-16
	MOVQ state+0(FP), SI
	MOVQ out+8(FP), DI

	VPBROADCASTD 0(SI), Y0
	VMOVDQU Y0, 0(SP)
	VPBROADCASTD 4(SI), Y0
	VMOVDQU Y0, 32(SP)
	VPBROADCASTD 8(SI), Y0
	VMOVDQU Y0, 64(SP)
	VPBROADCASTD 12(SI), Y0
	VMOVDQU Y0, 96(SP)
	VPBROADCASTD 16(SI), Y4
	VPBROADCASTD 20(SI), Y5
	VPBROADCASTD 24(SI), Y6
	VPBROADCASTD 28(SI), Y7
	VPBROADCASTD 32(SI), Y8
	VPBROADCASTD 36(SI), Y9
	VPBROADCASTD 40(SI), Y10
	VPBROADCASTD 44(SI), Y11
	VPBROADCASTD 48(SI), Y12
	VPADDD lanes<>(SB), Y12, Y12
	VPBROADCASTD 52(SI), Y13
	VPBROADCASTD 56(SI), Y14
	VPBROADCASTD 60(SI), Y15

	MOVQ $10, CX

rounds:
	// Column round: (0,4,8,12) (1,5,9,13) (2,6,10,14) (3,7,11,15).
	QR2(0(SP), 32(SP), Y4, Y5, Y8, Y9, Y12, Y13)
	QR2(64(SP), 96(SP), Y6, Y7, Y10, Y11, Y14, Y15)
	// Diagonal round: (0,5,10,15) (1,6,11,12) (2,7,8,13) (3,4,9,14).
	QR2(0(SP), 32(SP), Y5, Y6, Y10, Y11, Y15, Y12)
	QR2(64(SP), 96(SP), Y7, Y4, Y8, Y9, Y13, Y14)
	DECQ CX
	JNZ  rounds

	// Words 8-15: add the input, transpose, store.
	ADDIN(32, Y8)
	ADDIN(36, Y9)
	ADDIN(40, Y10)
	ADDIN(44, Y11)
	VPBROADCASTD 48(SI), Y0
	VPADDD lanes<>(SB), Y0, Y0
	VPADDD Y0, Y12, Y12
	ADDIN(52, Y13)
	ADDIN(56, Y14)
	ADDIN(60, Y15)
	TRANSPOSE4(Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y12, Y13, Y14, Y15)
	STORE2(Y8, Y12, 32(DI), 288(DI))
	STORE2(Y9, Y13, 96(DI), 352(DI))
	STORE2(Y10, Y14, 160(DI), 416(DI))
	STORE2(Y11, Y15, 224(DI), 480(DI))

	// Words 0-7: rows 0-3 come back from the frame.
	VPBROADCASTD 0(SI), Y8
	VPADDD 0(SP), Y8, Y8
	VPBROADCASTD 4(SI), Y9
	VPADDD 32(SP), Y9, Y9
	VPBROADCASTD 8(SI), Y10
	VPADDD 64(SP), Y10, Y10
	VPBROADCASTD 12(SI), Y11
	VPADDD 96(SP), Y11, Y11
	ADDIN(16, Y4)
	ADDIN(20, Y5)
	ADDIN(24, Y6)
	ADDIN(28, Y7)
	TRANSPOSE4(Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	STORE2(Y8, Y4, 0(DI), 256(DI))
	STORE2(Y9, Y5, 64(DI), 320(DI))
	STORE2(Y10, Y6, 128(DI), 384(DI))
	STORE2(Y11, Y7, 192(DI), 448(DI))

	VZEROUPPER
	RET

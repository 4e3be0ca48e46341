// SIMD interpreter for the packed bitslice op stream (simd.go).
//
// The kernel walks the 20-byte simdInstr records — {op, aOff, bOff,
// cOff, dOff} as uint32, offsets in bytes into the slot file — and
// executes one whole slot (Width = 16 contiguous uint64s) per
// instruction as four ymm registers.  Each handler reads only the
// operands its op uses, and every operand read happens before the
// destination store, so Dst aliasing an operand slot behaves exactly
// like the Go interpreters.
//
// Dispatch is a branch tree over the dense opcode, mirroring the Go
// interpreter's two-level switch (a 13-way indirect jump mispredicts
// on the irregular generated op sequences).
//
// Register budget: DI = instruction cursor, BX = end of code, SI = slot
// base, AX = opcode, R10-R13 = a/b/c/d byte offsets, Y15 = all-ones.
// R14 (goroutine pointer) and R15 are untouched.  No stack, no calls.

#include "textflag.h"

// func runCodeAVX2W16(code *simdInstr, n int, slots *uint64)
TEXT ·runCodeAVX2W16(SB), NOSPLIT, $0-24
	MOVQ code+0(FP), DI
	MOVQ n+8(FP), AX
	MOVQ slots+16(FP), SI
	LEAQ (AX)(AX*4), BX      // n*5
	LEAQ (DI)(BX*4), BX      // code end = code + n*20
	VPCMPEQD Y15, Y15, Y15   // all-ones (for NOT)
	CMPQ DI, BX
	JAE a16_done

a16_loop:
	MOVL 0(DI), AX
	MOVL 4(DI), R10
	MOVL 8(DI), R11
	MOVL 12(DI), R12
	MOVL 16(DI), R13
	ADDQ $20, DI
	CMPL AX, $5
	JB a16_base
	CMPL AX, $9
	JB a16_f_low
	CMPL AX, $11
	JB a16_f_mid
	CMPL AX, $12
	JB a16_andandnot
	JMP a16_andnotandnot

a16_f_mid:
	CMPL AX, $10
	JB a16_orand
	JMP a16_andnotand

a16_f_low:
	CMPL AX, $7
	JB a16_f_ll
	CMPL AX, $8
	JB a16_oror
	JMP a16_andand

a16_f_ll:
	CMPL AX, $6
	JB a16_andor
	JMP a16_andnotor

a16_base:
	CMPL AX, $2
	JB a16_b_low
	CMPL AX, $3
	JB a16_xor
	JE a16_not
	JMP a16_andnot

a16_b_low:
	CMPL AX, $1
	JB a16_and
	JMP a16_or

a16_and: // d = a & b
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPAND (SI)(R11*1), Y0, Y0
	VPAND 32(SI)(R11*1), Y1, Y1
	VPAND 64(SI)(R11*1), Y2, Y2
	VPAND 96(SI)(R11*1), Y3, Y3
	JMP a16_store

a16_or: // d = a | b
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPOR (SI)(R11*1), Y0, Y0
	VPOR 32(SI)(R11*1), Y1, Y1
	VPOR 64(SI)(R11*1), Y2, Y2
	VPOR 96(SI)(R11*1), Y3, Y3
	JMP a16_store

a16_xor: // d = a ^ b
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPXOR (SI)(R11*1), Y0, Y0
	VPXOR 32(SI)(R11*1), Y1, Y1
	VPXOR 64(SI)(R11*1), Y2, Y2
	VPXOR 96(SI)(R11*1), Y3, Y3
	JMP a16_store

a16_not: // d = ^a
	VPXOR (SI)(R10*1), Y15, Y0
	VPXOR 32(SI)(R10*1), Y15, Y1
	VPXOR 64(SI)(R10*1), Y15, Y2
	VPXOR 96(SI)(R10*1), Y15, Y3
	JMP a16_store

a16_andnot: // d = a &^ b = ~b & a
	VMOVDQU (SI)(R11*1), Y0
	VMOVDQU 32(SI)(R11*1), Y1
	VMOVDQU 64(SI)(R11*1), Y2
	VMOVDQU 96(SI)(R11*1), Y3
	VPANDN (SI)(R10*1), Y0, Y0
	VPANDN 32(SI)(R10*1), Y1, Y1
	VPANDN 64(SI)(R10*1), Y2, Y2
	VPANDN 96(SI)(R10*1), Y3, Y3
	JMP a16_store

a16_andor: // d = c | (a & b)
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPAND (SI)(R11*1), Y0, Y0
	VPAND 32(SI)(R11*1), Y1, Y1
	VPAND 64(SI)(R11*1), Y2, Y2
	VPAND 96(SI)(R11*1), Y3, Y3
	VPOR (SI)(R12*1), Y0, Y0
	VPOR 32(SI)(R12*1), Y1, Y1
	VPOR 64(SI)(R12*1), Y2, Y2
	VPOR 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_andnotor: // d = c | (a &^ b)
	VMOVDQU (SI)(R11*1), Y0
	VMOVDQU 32(SI)(R11*1), Y1
	VMOVDQU 64(SI)(R11*1), Y2
	VMOVDQU 96(SI)(R11*1), Y3
	VPANDN (SI)(R10*1), Y0, Y0
	VPANDN 32(SI)(R10*1), Y1, Y1
	VPANDN 64(SI)(R10*1), Y2, Y2
	VPANDN 96(SI)(R10*1), Y3, Y3
	VPOR (SI)(R12*1), Y0, Y0
	VPOR 32(SI)(R12*1), Y1, Y1
	VPOR 64(SI)(R12*1), Y2, Y2
	VPOR 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_oror: // d = c | a | b
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPOR (SI)(R11*1), Y0, Y0
	VPOR 32(SI)(R11*1), Y1, Y1
	VPOR 64(SI)(R11*1), Y2, Y2
	VPOR 96(SI)(R11*1), Y3, Y3
	VPOR (SI)(R12*1), Y0, Y0
	VPOR 32(SI)(R12*1), Y1, Y1
	VPOR 64(SI)(R12*1), Y2, Y2
	VPOR 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_andand: // d = c & a & b
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPAND (SI)(R11*1), Y0, Y0
	VPAND 32(SI)(R11*1), Y1, Y1
	VPAND 64(SI)(R11*1), Y2, Y2
	VPAND 96(SI)(R11*1), Y3, Y3
	VPAND (SI)(R12*1), Y0, Y0
	VPAND 32(SI)(R12*1), Y1, Y1
	VPAND 64(SI)(R12*1), Y2, Y2
	VPAND 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_orand: // d = c & (a | b)
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPOR (SI)(R11*1), Y0, Y0
	VPOR 32(SI)(R11*1), Y1, Y1
	VPOR 64(SI)(R11*1), Y2, Y2
	VPOR 96(SI)(R11*1), Y3, Y3
	VPAND (SI)(R12*1), Y0, Y0
	VPAND 32(SI)(R12*1), Y1, Y1
	VPAND 64(SI)(R12*1), Y2, Y2
	VPAND 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_andnotand: // d = c & (a &^ b)
	VMOVDQU (SI)(R11*1), Y0
	VMOVDQU 32(SI)(R11*1), Y1
	VMOVDQU 64(SI)(R11*1), Y2
	VMOVDQU 96(SI)(R11*1), Y3
	VPANDN (SI)(R10*1), Y0, Y0
	VPANDN 32(SI)(R10*1), Y1, Y1
	VPANDN 64(SI)(R10*1), Y2, Y2
	VPANDN 96(SI)(R10*1), Y3, Y3
	VPAND (SI)(R12*1), Y0, Y0
	VPAND 32(SI)(R12*1), Y1, Y1
	VPAND 64(SI)(R12*1), Y2, Y2
	VPAND 96(SI)(R12*1), Y3, Y3
	JMP a16_store

a16_andandnot: // d = (a & b) &^ c = ~c & (a & b)
	VMOVDQU (SI)(R12*1), Y4
	VMOVDQU 32(SI)(R12*1), Y5
	VMOVDQU 64(SI)(R12*1), Y6
	VMOVDQU 96(SI)(R12*1), Y7
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	VPAND (SI)(R11*1), Y0, Y0
	VPAND 32(SI)(R11*1), Y1, Y1
	VPAND 64(SI)(R11*1), Y2, Y2
	VPAND 96(SI)(R11*1), Y3, Y3
	VPANDN Y0, Y4, Y0
	VPANDN Y1, Y5, Y1
	VPANDN Y2, Y6, Y2
	VPANDN Y3, Y7, Y3
	JMP a16_store

a16_andnotandnot: // d = (a &^ b) &^ c = ~c & (~b & a)
	VMOVDQU (SI)(R12*1), Y4
	VMOVDQU 32(SI)(R12*1), Y5
	VMOVDQU 64(SI)(R12*1), Y6
	VMOVDQU 96(SI)(R12*1), Y7
	VMOVDQU (SI)(R11*1), Y0
	VMOVDQU 32(SI)(R11*1), Y1
	VMOVDQU 64(SI)(R11*1), Y2
	VMOVDQU 96(SI)(R11*1), Y3
	VPANDN (SI)(R10*1), Y0, Y0
	VPANDN 32(SI)(R10*1), Y1, Y1
	VPANDN 64(SI)(R10*1), Y2, Y2
	VPANDN 96(SI)(R10*1), Y3, Y3
	VPANDN Y0, Y4, Y0
	VPANDN Y1, Y5, Y1
	VPANDN Y2, Y6, Y2
	VPANDN Y3, Y7, Y3

a16_store:
	VMOVDQU Y0, (SI)(R13*1)
	VMOVDQU Y1, 32(SI)(R13*1)
	VMOVDQU Y2, 64(SI)(R13*1)
	VMOVDQU Y3, 96(SI)(R13*1)
	CMPQ DI, BX
	JB a16_loop

a16_done:
	VZEROUPPER
	RET

// traceview demonstrates the whole toolchain on a hand-written program:
// it assembles a small kernel with the built-in assembler, dumps the
// disassembly, traces the first dynamically executed instructions through
// the functional emulator, and then times the same program on BIG and
// HALF+FX — showing exactly which instruction classes the IXU captures.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"

	"fxa"
	"fxa/internal/asm"
	"fxa/internal/emu"
	"fxa/internal/isa"
)

const src = `
; dot-product-flavoured kernel: INT address arithmetic feeding loads,
; a serial accumulator chain, and a data-dependent branch.
	li   r9, 5000          ; iterations
	lda  r8, a
	lda  r7, b
	clr  r2                ; sum
loop:	ld   r3, 0(r8)
	ld   r4, 0(r7)
	mul  r5, r3, r4
	add  r2, r2, r5
	addi r8, r8, 8
	addi r7, r7, 8
	andi r6, r3, 1
	beq  r6, even
	addi r2, r2, 1         ; odd adjustment
even:	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x10000
a:	.quad 3, 1, 4, 1, 5, 9, 2, 6, 5, 3
	.space 65536
b:	.quad 2, 7, 1, 8, 2, 8, 1, 8, 2, 8
	.space 65536
`

func main() {
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== disassembly ==")
	code := prog.Segments[0]
	for off := 0; off+4 <= len(code.Data) && off < 17*4; off += 4 {
		w := binary.LittleEndian.Uint32(code.Data[off:])
		in, err := isa.Decode(w)
		if err != nil {
			break
		}
		fmt.Printf("  %#06x:  %s\n", code.Addr+uint64(off), in)
	}

	fmt.Println("\n== first 12 dynamic instructions ==")
	tr := emu.NewStream(emu.New(prog), 12)
	for {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		extra := ""
		if rec.Inst.IsMem() {
			extra = fmt.Sprintf("   [ea=%#x]", rec.EA)
		}
		if rec.Inst.IsBranch() {
			extra = fmt.Sprintf("   [taken=%v -> %#x]", rec.Taken, rec.NextPC)
		}
		fmt.Printf("  %3d  %#06x  %-24s%s\n", rec.Seq, rec.PC, rec.Inst.String(), extra)
	}

	fmt.Println("\n== timing ==")
	for _, m := range []fxa.Model{fxa.Big(), fxa.HalfFX()} {
		res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Trace: emu.NewStream(emu.New(prog), 0)})
		if err != nil {
			log.Fatal(err)
		}
		c := res.Counters
		fmt.Printf("  %-8s IPC %.3f", m.Name, c.IPC())
		if m.FX {
			fmt.Printf("  (IXU %.0f%%: %d ALU/branch, %d loads, %d stores; %d to OXU — the muls and load consumers)",
				100*c.IXURate(), c.IXUExec-c.IXULoadExec-c.IXUStoreExec, c.IXULoadExec, c.IXUStoreExec, c.OXUExec)
		}
		fmt.Println()
	}
}

// compiler demonstrates authoring a workload in FXK — the repository's
// small C-flavoured kernel language — instead of assembly, then comparing
// how the five Table I processor models execute it. The kernel is a
// histogram + prefix-sum pass, a common integer-heavy pattern the IXU
// handles well.
package main

import (
	"context"
	"fmt"
	"log"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/minic"
)

const kernel = `
// histogram of a pseudo-random stream, then an in-place prefix sum.
var hist[256];
var seed = 123456789;
var taken = 0;

for round = 0 .. 300 {
    for i = 0 .. 64 {
        // xorshift-style mixing
        seed = seed ^ (seed << 13);
        seed = seed ^ (seed >> 7);
        seed = seed ^ (seed << 17);
        hist[seed & 255] = hist[seed & 255] + 1;
        if (seed & 1) == 1 { taken = taken + 1; }
    }
}

var total = 0;
for b = 1 .. 256 {
    hist[b] = hist[b] + hist[b-1];
}
total = hist[255];
`

func main() {
	asmText, err := minic.CompileToAsm(kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d bytes of FXK into %d bytes of assembly\n\n", len(kernel), len(asmText))

	prog, err := minic.Compile(kernel)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %10s %10s %10s %10s\n", "model", "cycles", "IPC", "IXU rate", "energy")
	for _, m := range fxa.Models() {
		res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Trace: emu.NewStream(emu.New(prog), 0)})
		if err != nil {
			log.Fatal(err)
		}
		e := fxa.EnergyOf(m, res)
		rate := "-"
		if m.FX {
			rate = fmt.Sprintf("%.0f%%", 100*res.Counters.IXURate())
		}
		fmt.Printf("%-8s %10d %10.3f %10s %10.0f\n",
			m.Name, res.Counters.Cycles, res.Counters.IPC(), rate, e.Total())
	}
	fmt.Println("\nThe same source, five microarchitectures: the FXA models match or beat")
	fmt.Println("BIG's cycle count while consuming IQ energy only for the instructions")
	fmt.Println("the IXU could not execute.")
}

// Quickstart: run one SPEC CPU 2006 proxy on the baseline out-of-order
// core (BIG) and on the paper's proposal (HALF+FX), then print the
// comparison the paper's abstract is about: FXA is simultaneously faster
// and more energy-efficient, because the IXU executes most instructions
// without any dynamic scheduling.
package main

import (
	"context"
	"fmt"
	"log"

	"fxa"
)

func main() {
	const insts = 300_000
	ctx := context.Background()
	w, err := fxa.WorkloadByName("libquantum")
	if err != nil {
		log.Fatal(err)
	}

	big, err := fxa.Run(ctx, fxa.Spec{Model: fxa.Big(), Workload: w, MaxInsts: insts})
	if err != nil {
		log.Fatal(err)
	}
	halfFX, err := fxa.Run(ctx, fxa.Spec{Model: fxa.HalfFX(), Workload: w, MaxInsts: insts})
	if err != nil {
		log.Fatal(err)
	}

	eBig := fxa.EnergyOf(fxa.Big(), big)
	eFX := fxa.EnergyOf(fxa.HalfFX(), halfFX)

	fmt.Printf("workload: %s (%d instructions)\n\n", w.Name, insts)
	fmt.Printf("%-22s %10s %10s\n", "", "BIG", "HALF+FX")
	fmt.Printf("%-22s %10.3f %10.3f\n", "IPC", big.Counters.IPC(), halfFX.Counters.IPC())
	fmt.Printf("%-22s %10s %9.1f%%\n", "executed in IXU", "-", 100*halfFX.Counters.IXURate())
	fmt.Printf("%-22s %10d %10d\n", "IQ dispatches", big.Counters.IQDispatch, halfFX.Counters.IQDispatch)
	fmt.Printf("%-22s %10.0f %10.0f\n", "energy (model units)", eBig.Total(), eFX.Total())

	speedup := halfFX.Counters.IPC() / big.Counters.IPC()
	energyRatio := (eFX.Total() / float64(halfFX.Counters.Committed)) /
		(eBig.Total() / float64(big.Counters.Committed))
	fmt.Printf("\nHALF+FX vs BIG: %.2fx performance at %.0f%% of the energy "+
		"(performance/energy ratio %.2fx)\n",
		speedup, 100*energyRatio, speedup/energyRatio)
}

// biglittle reproduces the discussion of Section VI-I: FXA is not meant to
// replace both cores of an ARM big.LITTLE pair — the little core's energy
// per instruction is always lower — but to replace the big core, so that
// programs needing big-core performance run with lower energy.
//
// The example runs a high-ILP workload (where the big core is needed) and
// a memory-bound one (where LITTLE is adequate) across LITTLE, BIG, and
// HALF+FX, and prints performance, energy per instruction, and the
// performance/energy ratio for each pairing.
package main

import (
	"context"
	"fmt"
	"log"

	"fxa"
	"fxa/internal/biglittle"
)

func main() {
	const insts = 300_000
	models := []fxa.Model{fxa.Little(), fxa.Big(), fxa.HalfFX()}

	for _, name := range []string{"hmmer", "mcf"} {
		w, err := fxa.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", name)
		fmt.Printf("%-10s %8s %14s %10s\n", "core", "IPC", "energy/inst", "perf/energy")
		type row struct {
			ipc, epi float64
		}
		rows := map[string]row{}
		for _, m := range models {
			res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Workload: w, MaxInsts: insts})
			if err != nil {
				log.Fatal(err)
			}
			e := fxa.EnergyOf(m, res)
			epi := e.Total() / float64(res.Counters.Committed)
			rows[m.Name] = row{res.Counters.IPC(), epi}
		}
		little := rows["LITTLE"]
		for _, m := range models {
			r := rows[m.Name]
			// perf/energy relative to LITTLE: (IPC/IPC_l) / (epi/epi_l)
			per := (r.ipc / little.ipc) / (r.epi / little.epi)
			fmt.Printf("%-10s %8.3f %14.1f %10.2f\n", m.Name, r.ipc, r.epi, per)
		}
		fmt.Println()
	}

	fmt.Println("Reading the table the way Section VI-I does:")
	fmt.Println("  * LITTLE always has the lowest energy per instruction — it does no")
	fmt.Println("    renaming or scheduling — so it stays the right core for low-demand work.")
	fmt.Println("  * When big-core performance is required, HALF+FX delivers it at lower")
	fmt.Println("    energy than BIG: replace the big core, keep the little one.")

	// Now the full deployment scenario: a mobile-style phase schedule on
	// the two pairings.
	fmt.Println("\n--- big.LITTLE phase schedule (internal/biglittle) ---")
	sched := biglittle.DefaultSchedule(120_000)
	for _, sys := range []biglittle.System{biglittle.ConventionalPair(), biglittle.FXAPair()} {
		rep, err := sys.Run(sched)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s total %8d cycles (%8d in interactive phases), energy %12.0f\n",
			sys.Name, rep.Cycles, rep.HighCycles, rep.Energy)
	}
	fmt.Println("Replacing only the big core with HALF+FX speeds up the interactive")
	fmt.Println("phases and cuts whole-schedule energy — the paper's deployment claim.")
}

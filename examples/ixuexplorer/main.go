// ixuexplorer sweeps the IXU design space the way Sections III-A2 and VI-H
// do: the number of stages, the FUs per stage, and the bypass-network
// reach, reporting IPC and the fraction of instructions the IXU captures.
// It shows why the paper settles on three stages of [3,1,1] FUs with
// bypassing omitted beyond two stages: nearly all of the [3,3,3]/full
// performance at a fraction of the datapath.
package main

import (
	"context"
	"fmt"
	"log"

	"fxa"
)

func main() {
	const insts = 200_000
	workloads := []string{"libquantum", "hmmer", "gcc", "lbm"}

	type cfg struct {
		label  string
		stages []int
		bypass int
	}
	cfgs := []cfg{
		{"[3] full", []int{3}, 0},
		{"[3,3] full", []int{3, 3}, 0},
		{"[3,3,3] full", []int{3, 3, 3}, 0},
		{"[3,1,1] full", []int{3, 1, 1}, 0},
		{"[3,1,1] opt(2)", []int{3, 1, 1}, 2},
		{"[3,1,1] opt(1)", []int{3, 1, 1}, 1},
		{"[3,3,3,3,3] full", []int{3, 3, 3, 3, 3}, 0},
	}

	for _, name := range workloads {
		w, err := fxa.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", name)
		fmt.Printf("%-18s %8s %10s %12s\n", "IXU config", "IPC", "IXU rate", "IPC vs BIG")
		big, err := fxa.Run(context.Background(), fxa.Spec{Model: fxa.Big(), Workload: w, MaxInsts: insts})
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range cfgs {
			m := fxa.HalfFX()
			m.IXU.StageFUs = c.stages
			m.IXU.BypassMaxDist = c.bypass
			res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Workload: w, MaxInsts: insts})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-18s %8.3f %9.1f%% %12.3f\n", c.label,
				res.Counters.IPC(), 100*res.Counters.IXURate(),
				res.Counters.IPC()/big.Counters.IPC())
		}
		fmt.Println()
	}
}

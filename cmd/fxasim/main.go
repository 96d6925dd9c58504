// Command fxasim runs one workload on one processor model and prints the
// detailed statistics of the run: IPC, IXU/OXU split, cache and predictor
// behaviour, and the energy breakdown.
//
// Usage:
//
//	fxasim [-model HALF+FX] [-n 300000] [-asm file.s] [workload]
//
// Either name a built-in SPEC CPU 2006 proxy (fxasim libquantum) or supply
// an assembly file (fxasim -asm prog.s). With no arguments it lists the
// available workloads and models.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fxa"
	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/core"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/isa"
	"fxa/internal/pipetrace"
)

func main() {
	model := flag.String("model", "HALF+FX", "processor model (BIG, HALF, LITTLE, BIG+FX, HALF+FX)")
	n := flag.Uint64("n", 300_000, "maximum dynamic instructions (0 = run to halt; only for -asm)")
	asmFile := flag.String("asm", "", "assembly source file to run instead of a built-in workload")
	kanata := flag.String("kanata", "", "write a Kanata pipeline trace (view with Konata) to this file")
	pipeview := flag.Int("pipeview", 0, "print a textual pipeline diagram of the first N instructions")
	flag.Parse()

	m, err := fxa.ModelByName(*model)
	if err != nil {
		fatal(err)
	}

	var stream *emu.Stream
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		stream = emu.NewStream(emu.New(prog), *n)
	case flag.NArg() == 1 && strings.HasPrefix(flag.Arg(0), "fxk:"):
		c, err := fxa.CompiledWorkloadByName(strings.TrimPrefix(flag.Arg(0), "fxk:"))
		if err != nil {
			fatal(err)
		}
		stream, err = c.NewTrace(*n)
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		w, err := fxa.WorkloadByName(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if *n == 0 {
			fatal(fmt.Errorf("built-in workloads run forever; use -n"))
		}
		stream, err = w.NewTrace(*n)
		if err != nil {
			fatal(err)
		}
	default:
		usage()
		return
	}

	if (*pipeview > 0 || *kanata != "") && m.Kind != config.OutOfOrder {
		fatal(fmt.Errorf("-pipeview and -kanata require an out-of-order model"))
	}
	var res fxa.Result
	switch {
	case *pipeview > 0:
		tx := pipetrace.NewText(*pipeview)
		res, err = runProbed(m, stream, tx)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tx)
		fmt.Println()
	case *kanata != "":
		if res, err = writeKanata(*kanata, m, stream); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Kanata trace to %s\n\n", *kanata)
	default:
		res, err = fxa.Run(context.Background(), fxa.Spec{Model: m, Trace: stream})
		if err != nil {
			fatal(err)
		}
	}
	printResult(m, res)
}

// writeKanata simulates stream on the out-of-order core and writes its
// Kanata pipeline trace to path. A run that fails, or a trace that cannot
// be written out, leaves no file behind: the error is returned and the
// partial trace removed.
func writeKanata(path string, m fxa.Model, stream *emu.Stream) (fxa.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return fxa.Result{}, err
	}
	k := pipetrace.NewKanata(f)
	res, err := runProbed(m, stream, k)
	if err == nil {
		if err = k.Close(); err != nil {
			err = fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fxa.Result{}, errors.Join(err, os.Remove(path))
	}
	return res, nil
}

// runProbed simulates stream on the out-of-order core with probe
// attached. fxa.Run takes no probe, so this drives the core itself and
// checks the stream for an emulator fault as engine.Run does.
func runProbed(m fxa.Model, stream *emu.Stream, probe engine.Probe) (fxa.Result, error) {
	co, err := core.New(m, stream)
	if err != nil {
		return fxa.Result{}, err
	}
	co.SetProbe(probe)
	res, err := co.Run(context.Background())
	if err == nil {
		err = stream.Err()
	}
	return res, err
}

func usage() {
	fmt.Println("usage: fxasim [-model M] [-n N] (workload | -asm file.s)")
	fmt.Println("\nmodels:")
	for _, m := range fxa.Models() {
		fmt.Printf("  %s\n", m.Name)
	}
	fmt.Println("\nworkloads (SPEC CPU 2006 proxies):")
	for _, w := range fxa.Workloads() {
		group := "INT"
		if w.FP {
			group = "FP"
		}
		fmt.Printf("  %-12s (%s)\n", w.Name, group)
	}
	fmt.Println("\ncompiled FXK kernels (run as fxk:<name>):")
	for _, c := range fxa.CompiledWorkloads() {
		group := "INT"
		if c.FP {
			group = "FP"
		}
		fmt.Printf("  fxk:%-12s (%s)\n", c.Name, group)
	}
}

func printResult(m fxa.Model, res fxa.Result) {
	c := &res.Counters
	fmt.Printf("model           %s\n", m.Name)
	fmt.Printf("committed       %d instructions in %d cycles\n", c.Committed, c.Cycles)
	fmt.Printf("IPC             %.3f\n", c.IPC())
	if m.FX {
		fmt.Printf("IXU executed    %d (%.1f%%), by stage %v\n", c.IXUExec, 100*c.IXURate(), c.IXUExecByStage[:len(m.IXU.StageFUs)])
		fmt.Printf("  ready @entry  %d (category (a))\n", c.IXUReadyAtEntry)
		fmt.Printf("  loads/stores  %d / %d; branches %d\n", c.IXULoadExec, c.IXUStoreExec, c.IXUBranchExec)
		fmt.Printf("OXU executed    %d (IQ dispatches %d, issues %d)\n", c.OXUExec, c.IQDispatch, c.IQIssue)
		fmt.Printf("LSQ omissions   %d LQ-searches, %d LQ-writes\n", c.LQSearchOmitted, c.LQWriteOmitted)
	}
	fmt.Printf("branches        %d, mispredicted %d (MPKI %.2f; resolved IXU %d / OXU %d)\n",
		c.Branches, c.BranchMispredicts, c.MPKI(), c.MispredResolvedIXU, c.MispredResolvedOXU)
	fmt.Printf("mem violations  %d (replays %d)\n", c.MemViolations, c.Replays)
	fmt.Printf("L1I             %.2f%% miss (%d accesses)\n", 100*res.L1I.MissRate(), res.L1I.Accesses())
	fmt.Printf("L1D             %.2f%% miss (%d accesses, %d prefetches)\n", 100*res.L1D.MissRate(), res.L1D.Accesses(), res.L1D.Prefetches)
	fmt.Printf("L2              %.2f%% miss (%d accesses); DRAM %d\n", 100*res.L2.MissRate(), res.L2.Accesses(), res.DRAM)

	fmt.Printf("\ninstruction mix:\n")
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		if n := c.CommittedByClass[cls]; n > 0 {
			fmt.Printf("  %-8s %8d (%.1f%%)\n", cls, n, 100*float64(n)/float64(c.Committed))
		}
	}

	e := fxa.EnergyOf(m, res)
	fmt.Printf("\nenergy (model units; dynamic + static):\n")
	for _, comp := range fxa.Components() {
		if v := e.Of(comp); v > 0 {
			fmt.Printf("  %-8s %12.0f\n", comp, v)
		}
	}
	fmt.Printf("  %-8s %12.0f (%.1f per instruction)\n", "TOTAL", e.Total(), e.Total()/float64(c.Committed))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fxasim:", err)
	os.Exit(1)
}

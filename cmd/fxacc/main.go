// Command fxacc compiles FXK kernel-language source (see internal/minic)
// to assembly or runs it directly on a processor model.
//
// Usage:
//
//	fxacc [-S] [-run] [-model HALF+FX] [-n max] file.fxk
//
//	-S      print the generated assembly
//	-run    compile and simulate on -model, printing IPC and statistics
//	-n      dynamic instruction limit for -run (0 = to completion)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/minic"
)

func main() {
	emitAsm := flag.Bool("S", false, "print generated assembly")
	run := flag.Bool("run", false, "simulate the compiled program")
	model := flag.String("model", "HALF+FX", "processor model for -run")
	n := flag.Uint64("n", 0, "dynamic instruction limit for -run (0 = run to halt)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fxacc [-S] [-run] [-model M] [-n N] file.fxk")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	text, err := minic.CompileToAsm(string(src))
	if err != nil {
		fatal(err)
	}
	if *emitAsm {
		fmt.Print(text)
	}
	if !*run {
		if !*emitAsm {
			fmt.Println("compiled OK (use -S to print assembly, -run to simulate)")
		}
		return
	}
	prog, err := minic.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	m, err := fxa.ModelByName(*model)
	if err != nil {
		fatal(err)
	}
	res, err := fxa.Run(context.Background(), fxa.Spec{Model: m, Trace: emu.NewStream(emu.New(prog), *n)})
	if err != nil {
		fatal(err)
	}
	c := &res.Counters
	fmt.Printf("%s: %d instructions, %d cycles, IPC %.3f", m.Name, c.Committed, c.Cycles, c.IPC())
	if m.FX {
		fmt.Printf(", %.0f%% in IXU", 100*c.IXURate())
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fxacc:", err)
	os.Exit(1)
}

package fxa

// Differential test harness: every test kernel runs twice — once through a
// cycle-level timing model and once on the pure functional machine
// (internal/emu) — and the architectural outcomes must be identical:
//
//   - retired (committed) instruction count,
//   - final integer and FP register files, PC and halt state,
//   - final memory contents, byte for byte.
//
// The timing models are execution-driven off an emulator stream, so this
// guards the harness plumbing around them: a model that drops, duplicates
// or re-executes trace records (e.g. a flush/replay bug that double-commits
// a store through mem.Hierarchy bookkeeping into the functional machine)
// diverges here even when its cycle counts look plausible.

import (
	"context"
	"testing"

	"fxa/internal/emu"
)

// diffInsts is the per-run instruction budget of the differential suite.
const diffInsts = 60_000

func TestDifferentialAllModels(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)

		// Reference: the pure functional machine, run to the same budget.
		ref := emu.New(prog)
		if _, err := ref.Run(diffInsts); err != nil {
			t.Fatalf("%s: reference emulation: %v", name, err)
		}

		for _, m := range allKindModels(t) {
			m := m
			t.Run(name+"/"+m.Name, func(t *testing.T) {
				machine := emu.New(prog)
				stream := emu.NewStream(machine, diffInsts)
				res, err := Run(context.Background(), Spec{Model: m, Trace: stream})
				if err != nil {
					t.Fatal(err)
				}
				if serr := stream.Err(); serr != nil {
					t.Fatalf("stream error: %v", serr)
				}

				// The timing model must retire exactly the architectural
				// stream: every record once, none invented.
				if res.Counters.Committed != machine.InstCount {
					t.Errorf("committed %d instructions, functional machine executed %d",
						res.Counters.Committed, machine.InstCount)
				}
				if ref.InstCount != machine.InstCount {
					t.Errorf("instruction count drift: reference %d, timing-driven %d",
						ref.InstCount, machine.InstCount)
				}

				// Architectural register state.
				if ref.R != machine.R {
					for i := range ref.R {
						if ref.R[i] != machine.R[i] {
							t.Errorf("r%d: reference %#x, timing-driven %#x", i, ref.R[i], machine.R[i])
						}
					}
				}
				if ref.F != machine.F {
					for i := range ref.F {
						if ref.F[i] != machine.F[i] {
							t.Errorf("f%d: reference %v, timing-driven %v", i, ref.F[i], machine.F[i])
						}
					}
				}
				if ref.PC != machine.PC {
					t.Errorf("PC: reference %#x, timing-driven %#x", ref.PC, machine.PC)
				}
				if ref.Halt != machine.Halt {
					t.Errorf("halt: reference %v, timing-driven %v", ref.Halt, machine.Halt)
				}

				// Memory state, byte for byte.
				if addr, differs := ref.Mem.Diff(machine.Mem); differs {
					t.Errorf("memory differs at %#x: reference %#x, timing-driven %#x",
						addr, ref.Mem.Load8(addr), machine.Mem.Load8(addr))
				}
			})
		}
	}
}

// TestDifferentialToCompletion runs the smallest kernel with no instruction
// cap, so the halt path (pipeline drain after trace exhaustion) is covered
// end to end as well.
func TestDifferentialToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("uncapped run")
	}
	name, prog := compileKernel(t, "testdata/dotprod.fxk")
	ref := emu.New(prog)
	if _, err := ref.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !ref.Halt {
		t.Fatalf("%s did not halt", name)
	}
	for _, m := range allKindModels(t) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			machine := emu.New(prog)
			res, err := Run(context.Background(), Spec{Model: m, Trace: emu.NewStream(machine, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if !machine.Halt {
				t.Error("timing-driven machine did not halt")
			}
			if res.Counters.Committed != ref.InstCount {
				t.Errorf("committed %d, want %d", res.Counters.Committed, ref.InstCount)
			}
			if ref.R != machine.R || ref.F != machine.F {
				t.Error("final register file differs from reference")
			}
			if addr, differs := ref.Mem.Diff(machine.Mem); differs {
				t.Errorf("memory differs at %#x", addr)
			}
		})
	}
}

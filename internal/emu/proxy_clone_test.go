package emu_test

import (
	"sync"
	"testing"

	"fxa/internal/emu"
	"fxa/internal/workload"
)

// TestProxyClonesFaultConcurrently runs clones of a freshly loaded proxy,
// its tables entirely unmaterialised, on separate goroutines: each faults
// the proxy's generated pages through the workload's shared Fill
// functions (a random table and a pointer-chase table). Every clone must
// end in the state a serial run reaches; under -race this also covers the
// generators' shared state.
func TestProxyClonesFaultConcurrently(t *testing.T) {
	const insts = 30_000
	for _, name := range []string{"gcc", "mcf"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog := w.MustBuild()
		ref := emu.New(prog)
		if _, err := ref.Run(insts); err != nil {
			t.Fatal(err)
		}
		m := emu.New(prog)
		cs := make([]*emu.Machine, 4)
		for i := range cs {
			cs[i] = m.Clone()
		}
		var wg sync.WaitGroup
		errs := make([]error, len(cs))
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *emu.Machine) {
				defer wg.Done()
				_, errs[i] = c.Run(insts)
			}(i, c)
		}
		wg.Wait()
		for i, c := range cs {
			if errs[i] != nil {
				t.Fatalf("%s clone %d: %v", name, i, errs[i])
			}
			if c.R != ref.R || c.PC != ref.PC || !c.Mem.Equal(ref.Mem) {
				t.Fatalf("%s clone %d diverged from the serial run", name, i)
			}
		}
	}
}

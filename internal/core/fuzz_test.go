package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"

	// Register the non-out-of-order kinds so the registry-driven fuzz
	// variants can construct them through engine.New.
	_ "fxa/internal/inorder"
)

// progGen generates random but always-terminating programs: straight-line
// blocks of random instructions inside a fixed down-counting loop, with
// random loads/stores into a private scratch region and random
// data-dependent forward branches.
type progGen struct {
	r *rand.Rand
	b strings.Builder
	n int // emitted instruction count (approximate)
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
	g.n++
}

func (g *progGen) reg() int { return 1 + g.r.Intn(20) } // r1..r20

func (g *progGen) freg() int { return 1 + g.r.Intn(12) }

// generate returns assembly for a random program with the given loop trip
// count and body size.
func generate(seed int64, iters, body int) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.b.WriteString("\t.org 0x1000\n")
	g.emit("li r21, %d", iters)
	g.emit("li r22, 0x40000")              // scratch base
	g.emit("li r23, 0x7ff8")               // scratch mask (32 KB)
	g.emit("li r24, %d", 1+g.r.Intn(1000)) // seed value
	g.b.WriteString("loop:\n")
	skip := 0
	for i := 0; i < body; i++ {
		if skip > 0 {
			skip--
		}
		switch g.r.Intn(12) {
		case 0, 1, 2:
			ops := []string{"add", "sub", "xor", "or", "and", "cmplt", "cmpeq"}
			g.emit("%s r%d, r%d, r%d", ops[g.r.Intn(len(ops))], g.reg(), g.reg(), g.reg())
		case 3:
			g.emit("addi r%d, r%d, %d", g.reg(), g.reg(), g.r.Intn(2000)-1000)
		case 4:
			g.emit("slli r%d, r%d, %d", g.reg(), g.reg(), g.r.Intn(8))
		case 5:
			g.emit("mul r%d, r%d, r%d", g.reg(), g.reg(), g.reg())
		case 6:
			g.emit("div r%d, r%d, r%d", g.reg(), g.reg(), g.reg())
		case 7: // load from scratch (masked address)
			a, d := g.reg(), g.reg()
			g.emit("and r30, r%d, r23", a)
			g.emit("add r30, r30, r22")
			g.emit("ld r%d, 0(r30)", d)
		case 8: // store to scratch
			a, d := g.reg(), g.reg()
			g.emit("and r30, r%d, r23", a)
			g.emit("add r30, r30, r22")
			g.emit("st r%d, 8(r30)", d)
		case 9: // FP op on initialized FP regs
			ops := []string{"fadd", "fsub", "fmul"}
			g.emit("%s f%d, f%d, f%d", ops[g.r.Intn(len(ops))], g.freg(), g.freg(), g.freg())
		case 10: // forward branch over the next instruction
			if skip == 0 && i+2 < body {
				lbl := fmt.Sprintf("f%d", i)
				g.emit("beq r%d, %s", g.reg(), lbl)
				g.emit("addi r%d, r%d, 1", g.reg(), g.reg())
				g.b.WriteString(lbl + ":\n")
				skip = 1
			}
		case 11: // rotate the seed so branch conditions vary
			g.emit("slli r25, r24, 13")
			g.emit("xor r24, r24, r25")
			g.emit("srli r25, r24, 7")
			g.emit("xor r24, r24, r25")
		}
	}
	g.emit("addi r21, r21, -1")
	g.emit("bgt r21, loop")
	g.emit("halt")
	// FP init data + regs.
	src := g.b.String()
	init := "\tli r29, 0x3a000\n\tldf f0, 0(r29)\n"
	for i := 1; i <= 12; i++ {
		init += fmt.Sprintf("\tcvtif f%d, r%d\n", i, i+8)
	}
	src = strings.Replace(src, "loop:\n", init+"loop:\n", 1)
	src += "\t.org 0x3a000\n\t.double 1.5\n"
	return src
}

// TestFuzzAllModelsMatchEmulator generates random programs and checks the
// fundamental timing-model invariant on every model of every registered
// core kind: the committed instruction stream is exactly the
// architectural one (same count, and the pipeline drains without
// deadlock), regardless of speculation, replays, and IXU/OXU splits. The
// out-of-order-specific conservation laws apply only to that kind.
func TestFuzzAllModelsMatchEmulator(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42, 1234, 99999}
	if testing.Short() {
		seeds = seeds[:3]
	}
	models := config.AllModels()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src := generate(seed, 200, 40)
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			golden := emu.New(prog)
			want, err := golden.Run(10_000_000)
			if err != nil {
				t.Fatalf("seed %d emulate: %v", seed, err)
			}
			if !golden.Halt {
				t.Fatalf("seed %d: generated program did not halt", seed)
			}
			for _, m := range models {
				e, err := engine.New(m, emu.NewStream(emu.New(prog), 0))
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(context.Background())
				if err != nil {
					t.Fatalf("seed %d on %s: %v", seed, m.Name, err)
				}
				c := &res.Counters
				if c.Committed != want {
					t.Errorf("seed %d on %s: committed %d, want %d", seed, m.Name, c.Committed, want)
				}
				if m.Kind != config.OutOfOrder {
					continue
				}
				if c.IXUExec+c.OXUExec != c.Committed {
					t.Errorf("seed %d on %s: IXU(%d)+OXU(%d) != committed(%d)",
						seed, m.Name, c.IXUExec, c.OXUExec, c.Committed)
				}
				if m.FX && c.IQDispatch != c.OXUExec {
					t.Errorf("seed %d on %s: dispatches(%d) != OXU executions(%d)",
						seed, m.Name, c.IQDispatch, c.OXUExec)
				}
				if c.Replays != c.MemViolations {
					t.Errorf("seed %d on %s: replays(%d) != violations(%d)",
						seed, m.Name, c.Replays, c.MemViolations)
				}
			}
		})
	}
}

// runWithInjectedFlushes runs prog on model m while injecting flushFrom
// calls at pseudo-random cycles and random in-flight sequence numbers via
// the end-of-cycle debug hook. It exercises squash paths that organic
// memory-order violations reach only rarely: mid-IXU squashes, partial
// LQ/SQ squashes, squashes of RENO-eliminated moves, and flushes landing
// while fetch is blocked on an unresolved branch. Returns the drained core
// (for leakCheck), the result, and the number of flushes injected.
//
// skip selects idle-cycle skipping. The injection points are keyed on
// co.cycle and the hook only fires on iterated cycles, so skip-on and
// skip-off runs inject at different points — this harness checks the
// architectural invariants of each mode independently, not bit-identity
// (see runWithCommitKeyedFlushes in skip_test.go for that).
func runWithInjectedFlushes(m config.Model, prog *asm.Program, flushSeed int64, spacing int, skip bool) (*Core, engine.Result, int, error) {
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		return nil, engine.Result{}, 0, err
	}
	co.SetIdleSkip(skip)
	r := rand.New(rand.NewSource(flushSeed))
	const maxInjected = 50
	injected := 0
	next := int64(spacing)
	co.debug = func() {
		if injected >= maxInjected || co.cycle < next || co.rob.Len() == 0 {
			return
		}
		// Flush from a random in-flight instruction (suffix squash).
		k := r.Intn(co.rob.Len())
		co.flushFrom(co.rob.At(k).rec.Seq, co.cycle)
		injected++
		next = co.cycle + int64(spacing) + int64(r.Intn(spacing))
	}
	res, err := co.Run(context.Background())
	return co, res, injected, err
}

// checkFlushRun asserts the two invariants every injected-flush run must
// preserve: the committed stream is exactly the architectural one, and the
// uop pool conserves instances (no leaks, no double-frees) after drain.
func checkFlushRun(t *testing.T, label string, co *Core, res engine.Result, want uint64) {
	t.Helper()
	if res.Counters.Committed != want {
		t.Errorf("%s: committed %d, want %d", label, res.Counters.Committed, want)
	}
	if err := co.leakCheck(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// flushFuzzModel maps a variant index to a model, covering every
// registered core kind: the plain and FX out-of-order cores, two
// configurations the default model set never exercises — a single-MSHR
// core (fill serialization + flushes racing in-flight misses) and a RENO
// core (squash of eliminated moves, whose RAT entries alias another
// producer) — plus the in-order and dual-issue kinds, dispatched through
// the engine registry. Variants 0-4 keep their historical meaning so the
// recorded fuzz corpus stays valid.
func flushFuzzModel(variant uint8) config.Model {
	switch variant % 7 {
	case 0:
		return config.Big()
	case 1:
		return config.Half()
	case 2:
		return config.HalfFX()
	case 3:
		m := config.HalfFX()
		m.Name = "HALF+FX/mshr1"
		m.MSHRs = 1
		return m
	case 4:
		m := config.HalfFX()
		m.Name = "HALF+FX/reno"
		m.RENO = true
		return m
	case 5:
		return config.Little()
	default:
		return config.Dual()
	}
}

// runNonOoOFuzz runs prog on a non-out-of-order model through the engine
// registry. Those cores expose no flush-injection hook (they never
// speculate past a memory ordering), so the scenario degenerates to the
// drain/commit invariant under the selected skip mode — which is exactly
// what a registry-dispatched kind must still satisfy. An engine without
// SetIdleSkip is an error: it could only ever run skip-on.
func runNonOoOFuzz(m config.Model, prog *asm.Program, skip bool) (engine.Result, error) {
	e, err := engine.New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		return engine.Result{}, err
	}
	s, ok := e.(interface{ SetIdleSkip(bool) })
	if !ok {
		return engine.Result{}, fmt.Errorf("%s: engine %T has no SetIdleSkip", m.Name, e)
	}
	s.SetIdleSkip(skip)
	return e.Run(context.Background())
}

// TestFuzzRandomFlush runs the seed scenarios deterministically under
// plain `go test`: every model variant, two program seeds, and a spacing
// short enough that flushes land while the IXU and LSQ hold live state.
func TestFuzzRandomFlush(t *testing.T) {
	progSeeds := []int64{3, 1234}
	if testing.Short() {
		progSeeds = progSeeds[:1]
	}
	for _, progSeed := range progSeeds {
		src := generate(progSeed, 120, 40)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: %v", progSeed, err)
		}
		golden := emu.New(prog)
		want, err := golden.Run(10_000_000)
		if err != nil || !golden.Halt {
			t.Fatalf("seed %d emulate: %v (halt=%v)", progSeed, err, golden.Halt)
		}
		for variant := uint8(0); variant < 7; variant++ {
			for _, skip := range []bool{true, false} {
				m := flushFuzzModel(variant)
				label := fmt.Sprintf("seed %d on %s skip=%v", progSeed, m.Name, skip)
				if m.Kind != config.OutOfOrder {
					res, err := runNonOoOFuzz(m, prog, skip)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Counters.Committed != want {
						t.Errorf("%s: committed %d, want %d", label, res.Counters.Committed, want)
					}
					continue
				}
				co, res, injected, err := runWithInjectedFlushes(m, prog, progSeed*31+int64(variant), 24, skip)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if injected == 0 {
					t.Errorf("%s: no flushes injected (scenario vacuous)", label)
				}
				checkFlushRun(t, label, co, res, want)
			}
		}
	}
}

// FuzzRandomFlush is the native fuzz target over (program seed, flush
// seed, flush spacing, model variant). The corpus seeds pin the scenarios
// from the issue: a mid-IXU squash (FX model, tight spacing), an LQ/SQ
// partial squash (plain OoO, mid spacing), MSHR exhaustion (single-MSHR
// core), and a RENO-eliminated-move squash. The variant byte's high bit
// selects idle-cycle skipping off (clear = on, matching production), so
// the fuzzer explores flushes landing right after skip jumps and the
// plain iterated loop from the same corpus.
func FuzzRandomFlush(f *testing.F) {
	f.Add(int64(3), int64(7), uint8(16), uint8(2))       // mid-IXU squash
	f.Add(int64(1234), int64(99), uint8(48), uint8(0))   // LQ/SQ partial squash
	f.Add(int64(42), int64(5), uint8(24), uint8(3))      // MSHR exhaustion + flush
	f.Add(int64(7), int64(11), uint8(20), uint8(4))      // RENO squash
	f.Add(int64(42), int64(5), uint8(24), uint8(3|0x80)) // single MSHR, skipping off
	f.Fuzz(func(t *testing.T, progSeed, flushSeed int64, spacing, variant uint8) {
		src := generate(progSeed, 60, 30)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("generator emitted invalid assembly: %v", err)
		}
		golden := emu.New(prog)
		want, err := golden.Run(10_000_000)
		if err != nil || !golden.Halt {
			t.Skip("generated program did not terminate in budget")
		}
		sp := 16 + int(spacing)%112
		skip := variant&0x80 == 0
		m := flushFuzzModel(variant & 0x7f)
		if m.Kind != config.OutOfOrder {
			res, err := runNonOoOFuzz(m, prog, skip)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Committed != want {
				t.Errorf("%s: committed %d, want %d", m.Name, res.Counters.Committed, want)
			}
			return
		}
		co, res, _, err := runWithInjectedFlushes(m, prog, flushSeed, sp, skip)
		if err != nil {
			t.Fatal(err)
		}
		checkFlushRun(t, m.Name, co, res, want)
	})
}

// TestMSHRExhaustion pins the MSHR model: a pointer-stride loop whose
// loads all miss must run strictly slower with one miss-status register
// than with the default eight (fills serialize), while committing the
// identical architectural stream.
func TestMSHRExhaustion(t *testing.T) {
	src := `
	li r21, 400
	li r1, 0x100000
	li r2, 4096
loop:	ld r3, 0(r1)
	ld r4, 64(r1)
	ld r5, 128(r1)
	ld r6, 192(r1)
	add r1, r1, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	prog := asm.MustAssemble(src)
	want, _ := emu.New(prog).Run(1_000_000)
	cycles := make(map[int]uint64)
	for _, mshrs := range []int{1, 8} {
		m := config.HalfFX()
		m.MSHRs = mshrs
		co, err := New(m, emu.NewStream(emu.New(prog), 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Committed != want {
			t.Errorf("MSHRs=%d: committed %d, want %d", mshrs, res.Counters.Committed, want)
		}
		if err := co.leakCheck(); err != nil {
			t.Errorf("MSHRs=%d: %v", mshrs, err)
		}
		cycles[mshrs] = res.Counters.Cycles
	}
	if cycles[1] <= cycles[8] {
		t.Errorf("MSHR serialization has no effect: 1 MSHR took %d cycles, 8 MSHRs %d",
			cycles[1], cycles[8])
	}
}

// TestFuzzDivHeavy stresses unpipelined dividers and FU occupancy.
func TestFuzzDivHeavy(t *testing.T) {
	src := `
	li r21, 300
	li r1, 1000000
	li r2, 7
loop:	div r3, r1, r2
	div r4, r3, r2
	mul r5, r3, r4
	div r6, r5, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	prog := asm.MustAssemble(src)
	want, _ := emu.New(prog).Run(1_000_000)
	for _, m := range []config.Model{config.Big(), config.HalfFX()} {
		co, err := New(m, emu.NewStream(emu.New(prog), 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Committed != want {
			t.Errorf("%s: committed %d, want %d", m.Name, res.Counters.Committed, want)
		}
		// Serial 12-cycle divides bound the IPC well below 1.
		if ipc := res.Counters.IPC(); ipc > 0.5 {
			t.Errorf("%s: div-chain IPC %.2f implausibly high", m.Name, ipc)
		}
	}
}

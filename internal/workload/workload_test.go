package workload

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"fxa/internal/isa"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 29 {
		t.Fatalf("catalog has %d proxies, want 29 (12 INT + 17 FP)", len(cat))
	}
	if got := len(INT()); got != 12 {
		t.Errorf("INT group has %d, want 12", got)
	}
	if got := len(FPGroup()); got != 17 {
		t.Errorf("FP group has %d, want 17", got)
	}
	seen := map[string]bool{}
	for _, p := range cat {
		if seen[p.Name] {
			t.Errorf("duplicate proxy %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	for _, name := range []string{"libquantum", "mcf", "gromacs", "lbm"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

// mix runs a proxy functionally and returns per-class dynamic fractions.
func mix(t *testing.T, p Params, n uint64) (frac [isa.NumClasses]float64, taken uint64, condBr uint64) {
	t.Helper()
	tr, err := p.NewTrace(n)
	if err != nil {
		t.Fatal(err)
	}
	var counts [isa.NumClasses]uint64
	var total uint64
	for {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		counts[rec.Inst.Op.Class()]++
		total++
		if rec.Inst.IsCondBranch() && rec.Inst.Op != isa.OpBr {
			condBr++
			if rec.Taken {
				taken++
			}
		}
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if total == 0 {
		t.Fatal("no instructions executed")
	}
	for c := range counts {
		frac[c] = float64(counts[c]) / float64(total)
	}
	return frac, taken, condBr
}

func TestAllProxiesExecute(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			frac, _, _ := mix(t, p, 20_000)
			if frac[isa.ClassHalt] > 0 {
				t.Error("proxy halted during measurement window")
			}
			mem := frac[isa.ClassLoad] + frac[isa.ClassStore]
			if mem == 0 {
				t.Error("proxy performs no memory accesses")
			}
			fp := frac[isa.ClassFP] + frac[isa.ClassFPMul] + frac[isa.ClassFPDiv]
			if p.FP && fp == 0 {
				t.Error("FP-group proxy executes no FP instructions")
			}
			if !p.FP && fp > 0 {
				t.Error("INT-group proxy executes FP instructions")
			}
		})
	}
}

// TestLibquantumIntOpFraction checks the paper's Section VI-C claim
// driver: libquantum consists of >80% "INT operations" (logical, add/sub,
// shift, branch — not loads/stores).
func TestLibquantumIntOpFraction(t *testing.T) {
	p, _ := ByName("libquantum")
	frac, _, _ := mix(t, p, 50_000)
	intOps := frac[isa.ClassIntALU] + frac[isa.ClassIntMul] + frac[isa.ClassIntDiv] +
		frac[isa.ClassBranch] + frac[isa.ClassJump]
	if intOps < 0.8 {
		t.Errorf("libquantum INT-operation fraction = %.2f, want > 0.8", intOps)
	}
}

func TestGromacsIntOpFraction(t *testing.T) {
	p, _ := ByName("gromacs")
	frac, _, _ := mix(t, p, 50_000)
	intOps := frac[isa.ClassIntALU] + frac[isa.ClassIntMul] + frac[isa.ClassIntDiv] +
		frac[isa.ClassBranch] + frac[isa.ClassJump]
	if intOps < 0.75 {
		t.Errorf("gromacs INT-operation fraction = %.2f, want > 0.75", intOps)
	}
}

// TestFPGroupFPFraction checks footnote 5: the FP group averages ~31% FP
// instructions with a maximum around 52%.
func TestFPGroupFPFraction(t *testing.T) {
	var sum, maxv float64
	for _, p := range FPGroup() {
		frac, _, _ := mix(t, p, 20_000)
		fp := frac[isa.ClassFP] + frac[isa.ClassFPMul] + frac[isa.ClassFPDiv]
		sum += fp
		if fp > maxv {
			maxv = fp
		}
	}
	avg := sum / float64(len(FPGroup()))
	if avg < 0.15 || avg > 0.45 {
		t.Errorf("FP group average FP fraction = %.2f, want ~0.31", avg)
	}
	if maxv > 0.6 {
		t.Errorf("FP group max FP fraction = %.2f, want <= ~0.52", maxv)
	}
}

func TestBranchBiasMaterializes(t *testing.T) {
	p, _ := ByName("gobmk") // TakenBias 0.12, 5 data-dependent branches
	_, taken, cond := mix(t, p, 50_000)
	if cond == 0 {
		t.Fatal("no conditional branches")
	}
	rate := float64(taken) / float64(cond)
	// The loop back-edge is always taken and data branches are ~12%
	// taken; overall must sit between the two.
	if rate < 0.05 || rate > 0.95 {
		t.Errorf("taken rate %.2f implausible", rate)
	}
}

func TestChaseTableIsSingleCycle(t *testing.T) {
	p := Params{Name: "chasecheck", ALU: 1, ChainsInt: 1, Loads: 1,
		Pattern: Chase, Footprint: 4096, BodyRepeat: 1}
	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Extract the chase segment and follow the cycle.
	data := materialize(segmentAt(t, prog, dataBase))
	n := len(data) / 8
	visited := make(map[uint64]bool, n)
	addr := uint64(dataBase)
	for i := 0; i < n; i++ {
		if visited[addr] {
			t.Fatalf("pointer cycle shorter than footprint: revisited %#x after %d hops", addr, i)
		}
		visited[addr] = true
		off := addr - dataBase
		next := uint64(data[off]) | uint64(data[off+1])<<8 | uint64(data[off+2])<<16 |
			uint64(data[off+3])<<24 | uint64(data[off+4])<<32
		addr = next
		if addr < dataBase || addr >= uint64(dataBase+p.Footprint) {
			t.Fatalf("chase pointer %#x escapes footprint", addr)
		}
	}
	if addr != dataBase {
		t.Errorf("cycle does not return to start (ended at %#x)", addr)
	}
}

func TestDeterministicBuild(t *testing.T) {
	p, _ := ByName("mcf")
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments) != len(b.Segments) {
		t.Fatal("segment count differs between builds")
	}
	for i := range a.Segments {
		sa, sb := a.Segments[i], b.Segments[i]
		if sa.Addr != sb.Addr || (sa.Fill == nil) != (sb.Fill == nil) {
			t.Fatal("segments differ between builds")
		}
		da, db := sa.Data, sb.Data
		if sa.Fill != nil {
			da, db = materialize(sa), materialize(sb)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("segment %d differs between builds", i)
		}
	}
	// The two builds share one memoized program: its chase table must
	// be the table a fresh shuffle from the proxy's seed produces.
	fresh := make([]byte, p.Footprint)
	newChaseTable(newRNG(p.Name+"/data"), p.Footprint/8).fill(0, fresh)
	if !bytes.Equal(materialize(segmentAt(t, a, dataBase)), fresh) {
		t.Fatal("memoized chase table differs from a fresh shuffle")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Name: "", Footprint: 4096, ChainsInt: 1, BodyRepeat: 1},
		{Name: "x", Footprint: 1000, ChainsInt: 1, BodyRepeat: 1},
		{Name: "x", Footprint: 4096, ChainsInt: 0, BodyRepeat: 1},
		{Name: "x", Footprint: 4096, ChainsInt: 9, BodyRepeat: 1},
		{Name: "x", Footprint: 4096, ChainsInt: 1, BodyRepeat: 0},
		{Name: "x", Footprint: 4096, ChainsInt: 1, BodyRepeat: 1, TakenBias: 1.5},
		{Name: "x", Footprint: 4096, ChainsInt: 1, BodyRepeat: 1, TakenBias: math.NaN()},
		{Name: "x", Footprint: dataRegion * 2, ChainsInt: 1, BodyRepeat: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// Property-ish check: footprint controls L1D locality. A 16 MB random
// walker must touch far more distinct cache lines than an 8 KB one.
func TestFootprintDrivesLocality(t *testing.T) {
	lines := func(fp int) int {
		p := Params{Name: "loc", ALU: 2, ChainsInt: 1, Loads: 4,
			Pattern: Random, Footprint: fp, BodyRepeat: 1}
		tr, err := p.NewTrace(30_000)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for {
			rec, ok := tr.Next()
			if !ok {
				break
			}
			if rec.Inst.Op.Class() == isa.ClassLoad && rec.EA >= dataBase {
				seen[rec.EA>>6] = true
			}
		}
		return len(seen)
	}
	small := lines(8 << 10)
	big := lines(16 << 20)
	if big < small*4 {
		t.Errorf("16MB walker touched %d lines, 8KB walker %d; expected much more", big, small)
	}
}

func TestCompiledCatalogRuns(t *testing.T) {
	for _, c := range CompiledCatalog() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			tr, err := c.NewTrace(30_000)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			fp := 0
			for {
				rec, ok := tr.Next()
				if !ok {
					break
				}
				if rec.Inst.IsFP() {
					fp++
				}
				n++
			}
			if tr.Err() != nil {
				t.Fatal(tr.Err())
			}
			if n < 10_000 {
				t.Errorf("kernel too short for measurement: %d records", n)
			}
			if c.FP && fp == 0 {
				t.Error("FP kernel executed no FP instructions")
			}
			if !c.FP && fp > 0 {
				t.Error("INT kernel executed FP instructions")
			}
		})
	}
	if _, ok := CompiledByName("histogram"); !ok {
		t.Error("CompiledByName failed")
	}
	if _, ok := CompiledByName("nope"); ok {
		t.Error("CompiledByName accepted unknown name")
	}
}

// TestBuildAssemblesOnce checks the assembled-program memo: a second
// Build of a proxy allocates a small fraction of the first (which renders
// and assembles the source), and each Build returns its own Program, so
// a caller that changes one program's segments does not change the next.
func TestBuildAssemblesOnce(t *testing.T) {
	p, _ := ByName("gcc")
	resetPrograms()
	allocated := func() uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.MustBuild()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	t.Logf("Build of gcc: %d bytes the first time, %d the second", first, second)
	if second > first/10 {
		t.Errorf("a second Build allocated %d bytes, the first %d: want under a tenth", second, first)
	}

	a := p.MustBuild()
	want := slices.Clone(a.Segments)
	a.Segments[0].Addr++
	a.Segments = a.Segments[:1]
	a.Labels["start"]++
	b := p.MustBuild()
	if len(b.Segments) != len(want) || b.Segments[0].Addr != want[0].Addr || b.Labels["start"] != want[0].Addr {
		t.Errorf("changing one Build's program changed the next: %d segments, first at %#x, start %#x",
			len(b.Segments), b.Segments[0].Addr, b.Labels["start"])
	}
}

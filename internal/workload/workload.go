// Package workload generates the synthetic SPEC CPU 2006 proxy programs
// used in place of the real suite (which cannot be redistributed or
// compiled here — see DESIGN.md). Each proxy is an assembly kernel whose
// instruction mix, dependence structure, branch predictability, and memory
// footprint are tuned to the published characteristics of one SPEC
// program. The FXA results are driven by exactly those four axes
// (Sections IV and VI of the paper), so the proxies preserve the paper's
// relative shapes even though absolute IPCs differ from real SPEC runs.
package workload

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"fxa/internal/asm"
	"fxa/internal/emu"
)

// MemPattern selects the data-access pattern of a proxy.
type MemPattern int

const (
	// Stream walks the footprint with a fixed stride (prefetch-friendly
	// in real machines; here it controls the miss rate via footprint).
	Stream MemPattern = iota
	// Random computes xorshift-randomized addresses within the
	// footprint.
	Random
	// Chase follows a precomputed random pointer cycle (serialized
	// loads, mcf-style).
	Chase
)

// Params characterizes one proxy kernel. All block counts are per loop
// iteration (before BodyRepeat unrolling).
type Params struct {
	Name string
	FP   bool // member of the FP benchmark group

	// Integer compute.
	ALU       int // 1-cycle INT operations
	Mul       int
	Div       int
	ChainsInt int // independent accumulator chains the ALU ops spread over
	Consec    int // length of a consecutive serial dependence chain (0 = none)

	// Memory.
	Loads     int // loads using Pattern
	LoadUse   int // load→use pairs: a load immediately feeding an ALU op
	Chase     int // additional pointer-chasing loads (serialized)
	Stores    int
	Pattern   MemPattern
	Footprint int // bytes, power of two, ≥ 4096
	Stride    int // bytes, Stream only

	// Floating point.
	FPAdd int
	FPMul int
	FPDiv int

	// Control.
	RandBranches int     // data-dependent branches per iteration
	TakenBias    float64 // fraction of taken outcomes in the branch table
	BodyRepeat   int     // unroll factor (also models I-footprint)
}

// Validate checks the parameters are buildable.
func (p *Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if p.Footprint < 4096 || p.Footprint&(p.Footprint-1) != 0 {
		return fmt.Errorf("workload %s: footprint %d must be a power of two >= 4096", p.Name, p.Footprint)
	}
	if p.Footprint > dataRegion {
		return fmt.Errorf("workload %s: footprint %d exceeds data region", p.Name, p.Footprint)
	}
	if p.ChainsInt < 1 || p.ChainsInt > 8 {
		return fmt.Errorf("workload %s: ChainsInt %d out of [1,8]", p.Name, p.ChainsInt)
	}
	if p.BodyRepeat < 1 {
		return fmt.Errorf("workload %s: BodyRepeat must be >= 1", p.Name)
	}
	if !(p.TakenBias >= 0 && p.TakenBias <= 1) { // NaN included
		return fmt.Errorf("workload %s: TakenBias %f out of [0,1]", p.Name, p.TakenBias)
	}
	if p.Stride == 0 {
		p.Stride = 8
	}
	return nil
}

// Memory map of every proxy program (all below the assembler's 28-bit
// li range).
const (
	codeBase    = 0x1000
	fpConstBase = 0x8000
	brTableBase = 0x100000 // 8192 × 8 B of 0/1 branch-condition words
	brTableLen  = 8192
	dataBase    = 0x400000
	dataRegion  = 0x4000000 // 64 MB ceiling for footprints
)

// Build assembles the proxy into a loadable program. The main loop is
// effectively endless (the caller bounds the run with emu.Stream's
// instruction cap). Each distinct Params value is assembled once per
// process (programs); every call returns its own Program and Segments,
// whose literal Data and generated tables it shares read-only with every
// other Build of the same value.
func (p Params) Build() (*asm.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	programsMu.Lock()
	build, ok := programs[p]
	if !ok {
		build = sync.OnceValue(func() assembled { return assemble(p) })
		programs[p] = build
	}
	programsMu.Unlock()
	a := build()
	if a.err != nil {
		return nil, a.err
	}
	prog := *a.prog
	prog.Segments = slices.Clone(prog.Segments)
	prog.Labels = maps.Clone(prog.Labels)
	return &prog, nil
}

// assembled is the memoized outcome of assembling one Params value.
type assembled struct {
	prog *asm.Program
	err  error
}

// programs holds the assembled program of every Params value built so
// far, each assembled once by its own sync.OnceValue: concurrent first
// Builds of one value wait for one assembly, and different values
// assemble in parallel. A program is never written after its assembly.
// For the catalog that is 29 programs of at most 1 KiB of code each, and
// their tables: 5.5 MiB of chase successors over mcf, omnetpp and astar,
// and 900 KiB of sector states over the random tables, filled as pages
// and words are generated.
var (
	programsMu sync.Mutex
	programs   = map[Params]func() assembled{}
)

// assemble renders and assembles p's kernel and appends its generated
// tables.
func assemble(p Params) assembled {
	src := p.source()
	prog, err := asm.Assemble(src)
	if err != nil {
		return assembled{err: fmt.Errorf("workload %s: %w\nsource:\n%s", p.Name, err, src)}
	}
	// The data tables are far too large to express as .quad directives;
	// they are generated segments, filled page by page as a run touches
	// them (image.go).
	prog.Segments = append(prog.Segments, p.branchTable(), p.dataTable())
	return assembled{prog: prog}
}

// MustBuild is Build for the static catalog (panics on error).
func (p Params) MustBuild() *asm.Program {
	prog, err := p.Build()
	if err != nil {
		panic(err)
	}
	return prog
}

// NewTrace builds the program and returns a dynamic-instruction stream
// capped at maxInsts records.
func (p Params) NewTrace(maxInsts uint64) (*emu.Stream, error) {
	prog, err := p.Build()
	if err != nil {
		return nil, err
	}
	return emu.NewStream(emu.New(prog), maxInsts), nil
}

// rng is the deterministic xorshift64 used for table generation, seeded
// from the proxy name so every proxy is reproducible.
type rng uint64

func newRNG(name string) *rng {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 88172645463325252
	}
	r := rng(h)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// Register conventions of the generated kernels (see source()).
//
//	r5  = small constant operand          r7  = chase pointer
//	r9  = iteration counter               r11 = stream offset
//	r12 = xorshift state                  r13 = branch-table offset
//	r14 = branch condition temp           r15 = serial-chain register
//	r16..r23 = independent INT chains     r24/r25 = loaded values
//	r26 = branch-table mask               r27 = branch-table base
//	r28 = data base                       r29 = data mask
//	r30 = address temp                    f1/f2 = FP constants
//	f16..f23 = FP chains                  f24 = loaded FP value
type block struct {
	text string
	n    int // instruction count (for mix accounting in tests)
}

// source emits the kernel's assembly text.
func (p Params) source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s: synthetic SPEC CPU 2006 proxy (auto-generated)\n", p.Name)
	fmt.Fprintf(&b, "\t.org %#x\n", codeBase)
	// Init.
	fmt.Fprintf(&b, "start:\tli r5, 3\n")
	fmt.Fprintf(&b, "\tli r9, %d\n", 1<<26) // effectively endless
	fmt.Fprintf(&b, "\tli r12, 123456789\n")
	fmt.Fprintf(&b, "\tli r26, %d\n", (brTableLen-1)*8)
	fmt.Fprintf(&b, "\tli r27, %#x\n", brTableBase)
	fmt.Fprintf(&b, "\tli r28, %#x\n", dataBase)
	fmt.Fprintf(&b, "\tli r29, %d\n", (p.Footprint-1)&^7)
	fmt.Fprintf(&b, "\tli r7, %#x\n", dataBase)
	fmt.Fprintf(&b, "\tli r10, %d\n", p.Footprint/2)
	fmt.Fprintf(&b, "\tclr r11\n\tclr r13\n\tclr r15\n")
	for c := 0; c < p.ChainsInt; c++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", 16+c, c+1)
	}
	if p.hasFP() {
		fmt.Fprintf(&b, "\tli r30, %#x\n", fpConstBase)
		fmt.Fprintf(&b, "\tldf f1, 0(r30)\n\tldf f2, 8(r30)\n")
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&b, "\tfmov f%d, f2\n", 16+c)
		}
	}
	b.WriteString("loop:\n")
	blocks := p.bodyBlocks()
	for rep := 0; rep < p.BodyRepeat; rep++ {
		for i, blk := range blocks {
			// Unique labels per instance.
			text := strings.ReplaceAll(blk.text, "@", fmt.Sprintf("r%d_b%d", rep, i))
			b.WriteString(text)
		}
	}
	b.WriteString("\taddi r9, r9, -1\n\tbgt r9, loop\n\thalt\n")
	if p.hasFP() {
		fmt.Fprintf(&b, "\t.org %#x\nfpconst:\t.double 1.0000001, 0.75\n", fpConstBase)
	}
	return b.String()
}

func (p Params) hasFP() bool { return p.FPAdd+p.FPMul+p.FPDiv > 0 }

// bodyBlocks composes the loop body: one mini-block per operation,
// deterministically interleaved so dependence distances resemble compiled
// code rather than bunched categories.
func (p Params) bodyBlocks() []block {
	var cats [][]block
	add := func(bs []block) {
		if len(bs) > 0 {
			cats = append(cats, bs)
		}
	}
	add(p.aluBlocks())
	add(p.memBlocks())
	add(p.fpBlocks())
	add(p.branchBlocks())
	add(p.mulDivBlocks())
	add(p.consecBlocks())

	// Round-robin interleave across categories.
	var out []block
	for {
		done := true
		for i := range cats {
			if len(cats[i]) > 0 {
				out = append(out, cats[i][0])
				cats[i] = cats[i][1:]
				done = false
			}
		}
		if done {
			return out
		}
	}
}

func (p Params) aluBlocks() []block {
	ops := []string{"add", "xor", "sub", "or", "sll"}
	var bs []block
	for i := 0; i < p.ALU; i++ {
		c := 16 + i%p.ChainsInt
		src := "r5"
		if p.Loads > 0 && i%3 == 1 {
			src = fmt.Sprintf("r%d", 24+i%2) // consume loaded values
		}
		op := ops[i%len(ops)]
		if op == "sll" {
			src = "r5" // keep shifts bounded
		}
		bs = append(bs, block{fmt.Sprintf("\t%s r%d, r%d, %s\n", op, c, c, src), 1})
	}
	return bs
}

func (p Params) mulDivBlocks() []block {
	var bs []block
	for i := 0; i < p.Mul; i++ {
		c := 16 + i%p.ChainsInt
		bs = append(bs, block{fmt.Sprintf("\tmul r%d, r%d, r5\n", c, c), 1})
	}
	for i := 0; i < p.Div; i++ {
		c := 16 + i%p.ChainsInt
		bs = append(bs, block{fmt.Sprintf("\tdiv r%d, r%d, r5\n", c, c), 1})
	}
	return bs
}

func (p Params) consecBlocks() []block {
	if p.Consec == 0 {
		return nil
	}
	var sb strings.Builder
	for i := 0; i < p.Consec; i++ {
		sb.WriteString("\tadd r15, r15, r5\n")
	}
	return []block{{sb.String(), p.Consec}}
}

// memBlocks emits loads and stores under the proxy's access pattern.
// Stores walk their own stream (offset register r10, starting half a
// footprint away) so they do not systematically alias the load stream
// through the LSQ. Chase loads serialize on the pointer register r7.
func (p Params) memBlocks() []block {
	var bs []block
	emitLoadAddr := func(sb *strings.Builder) int {
		switch p.Pattern {
		case Random:
			sb.WriteString("\tslli r14, r12, 13\n\txor r12, r12, r14\n")
			sb.WriteString("\tsrli r14, r12, 7\n\txor r12, r12, r14\n")
			sb.WriteString("\tand r30, r12, r29\n\tadd r30, r30, r28\n")
			return 6
		default: // Stream (and the load side of Chase-dominant mixes)
			fmt.Fprintf(sb, "\tadd r30, r28, r11\n")
			fmt.Fprintf(sb, "\taddi r11, r11, %d\n", p.Stride)
			fmt.Fprintf(sb, "\tand r11, r11, r29\n")
			return 3
		}
	}
	for i := 0; i < p.Chase; i++ {
		bs = append(bs, block{"\tld r7, 0(r7)\n", 1})
	}
	// Load→use pairs: the consumer sits right behind the load, as compiled
	// code commonly does; inside the IXU the consumer usually just misses
	// the load's 2-cycle latency window and falls through to the OXU.
	for i := 0; i < p.LoadUse; i++ {
		var sb strings.Builder
		sb.WriteString("\tadd r30, r28, r11\n")
		fmt.Fprintf(&sb, "\taddi r11, r11, %d\n", p.Stride)
		sb.WriteString("\tand r11, r11, r29\n")
		fmt.Fprintf(&sb, "\tld r%d, 0(r30)\n", 24+i%2)
		fmt.Fprintf(&sb, "\tadd r%d, r%d, r%d\n", 16+i%p.ChainsInt, 16+i%p.ChainsInt, 24+i%2)
		bs = append(bs, block{sb.String(), 5})
	}
	loads := p.Loads
	if p.Pattern == Chase {
		// Legacy form: all loads chase.
		for i := 0; i < loads; i++ {
			bs = append(bs, block{"\tld r7, 0(r7)\n", 1})
		}
		loads = 0
	}
	// Loads rotate across six destination registers so independent loads
	// are not serialized by WAW interlocks (as compiled code would
	// allocate registers).
	ldRegs := []int{24, 25, 1, 2, 3, 4}
	i := 0
	for loads > 0 {
		var sb strings.Builder
		n := emitLoadAddr(&sb)
		fmt.Fprintf(&sb, "\tld r%d, 0(r30)\n", ldRegs[i%len(ldRegs)])
		n++
		loads--
		i++
		if loads > 0 && p.Pattern != Random {
			fmt.Fprintf(&sb, "\tld r%d, 8(r30)\n", ldRegs[i%len(ldRegs)])
			n++
			loads--
			i++
		}
		bs = append(bs, block{sb.String(), n})
	}
	for s := 0; s < p.Stores; s++ {
		var sb strings.Builder
		sb.WriteString("\tadd r30, r28, r10\n")
		fmt.Fprintf(&sb, "\taddi r10, r10, %d\n", max(p.Stride, 8))
		sb.WriteString("\tand r10, r10, r29\n")
		fmt.Fprintf(&sb, "\tst r%d, 0(r30)\n", 16+s%p.ChainsInt)
		bs = append(bs, block{sb.String(), 4})
	}
	return bs
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (p Params) fpBlocks() []block {
	var bs []block
	for i := 0; i < p.FPAdd; i++ {
		c := 16 + i%4
		bs = append(bs, block{fmt.Sprintf("\tfadd f%d, f%d, f2\n", c, c), 1})
	}
	for i := 0; i < p.FPMul; i++ {
		c := 20 + i%4
		bs = append(bs, block{fmt.Sprintf("\tfmul f%d, f%d, f1\n", c, c), 1})
	}
	for i := 0; i < p.FPDiv; i++ {
		c := 16 + i%4
		bs = append(bs, block{fmt.Sprintf("\tfdiv f%d, f%d, f1\n", c, c), 1})
	}
	return bs
}

// branchBlocks emits data-dependent conditional branches whose outcome
// comes from the biased random table, using the compare-and-branch idiom
// compilers emit. Each block branches on the condition value loaded by the
// previous block (software-pipelined, alternating between r0 and r6), so
// the compare's producer is usually old enough for the front-end PRF read
// while the branch itself resolves off the compare's IXU bypass.
func (p Params) branchBlocks() []block {
	var bs []block
	for i := 0; i < p.RandBranches; i++ {
		cond := 0
		if i%2 == 1 {
			cond = 6
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "\tcmpeqi r14, r%d, 1\n", cond)
		sb.WriteString("\tbne r14, skip@\n")
		sb.WriteString("\taddi r15, r15, 1\n")
		sb.WriteString("skip@:\n")
		sb.WriteString("\tadd r30, r27, r13\n")
		fmt.Fprintf(&sb, "\tld r%d, 0(r30)\n", cond)
		sb.WriteString("\taddi r13, r13, 8\n")
		sb.WriteString("\tand r13, r13, r26\n")
		bs = append(bs, block{sb.String(), 7})
	}
	return bs
}

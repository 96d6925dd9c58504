// Package asm implements a two-pass assembler for the ISA defined in
// internal/isa. It turns assembly text into a loadable Program image.
//
// Source format (one statement per line):
//
//	; comment            # comment       // comment
//	label:  add   r1, r2, r3
//	        addi  r1, r2, -5
//	        ld    r4, 16(r2)
//	        beq   r1, loop
//	        br    done
//	        jmp   r31, (r7)
//	        halt
//	        .org   0x1000        ; set location counter
//	        .align 64            ; pad to alignment
//	        .quad  1, 2, -3      ; 8-byte little-endian values
//	        .double 3.14, 2.0    ; 8-byte IEEE-754 values
//	        .space 4096          ; zero-filled bytes
//
// Pseudo-instructions (expanded by the assembler):
//
//	li  rd, imm       load a signed constant up to 28 bits (2 words)
//	lda rd, label     load the address of a label (2 words)
//	mov rd, ra        addi rd, ra, 0
//	neg rd, ra        sub rd, r31, ra
//	clr rd            addi rd, r31, 0
package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"fxa/internal/isa"
)

// Program is an assembled memory image.
type Program struct {
	// Entry is the address execution starts at: the address of the first
	// instruction assembled (or of the "start" label if one is defined).
	Entry uint64
	// Segments hold the image contents, sorted by address,
	// non-overlapping.
	Segments []Segment
	// Labels maps every label to its address.
	Labels map[string]uint64
}

// Segment is a contiguous run of initialized memory at Addr. A literal
// segment holds its bytes in Data. A generated segment has no Data: its
// Size bytes come from Fill on demand, so a loader can materialise only
// the pages a run touches (DESIGN.md §8.11). The assembler emits literal
// segments only.
type Segment struct {
	Addr uint64
	Data []byte

	// Size is the length of a generated segment in bytes.
	Size uint64
	// Fill writes bytes [off, off+len(dst)) of a generated segment into
	// dst, for any range within Size. It must be pure and deterministic
	// (a range's bytes never depend on which ranges were filled before)
	// and safe for concurrent use: copy-on-write clones on different
	// goroutines fill pages of one image independently. Nil for a
	// literal segment.
	Fill func(off uint64, dst []byte)
}

// DefaultOrg is the location counter before any .org directive.
const DefaultOrg = 0x1000

// Assemble translates src into a Program. All errors (with line numbers)
// are joined into the returned error.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		labels: make(map[string]uint64),
		chunks: make(map[uint64][]byte),
	}
	a.run(src)
	if len(a.errs) > 0 {
		return nil, errors.Join(a.errs...)
	}
	return a.finish()
}

// MustAssemble is Assemble that panics on error; intended for statically
// known-good sources such as the built-in workloads.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("asm: %v", err))
	}
	return p
}

type statement struct {
	line  int
	label string
	// one of:
	op   string   // mnemonic or directive (".quad" etc.), "" if label-only
	args []string // comma-separated operand fields
}

type assembler struct {
	errs   []error
	labels map[string]uint64
	stmts  []statement
	chunks map[uint64][]byte // chunk start -> bytes (merged later)

	loc        uint64
	curStart   uint64
	cur        []byte
	firstInstr uint64
	haveFirst  bool
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (a *assembler) run(src string) {
	a.parse(src)
	if len(a.errs) > 0 {
		return
	}
	a.pass1()
	if len(a.errs) > 0 {
		return
	}
	a.pass2()
}

func (a *assembler) parse(src string) {
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := raw
		for _, cm := range []string{";", "#", "//"} {
			if idx := strings.Index(text, cm); idx >= 0 {
				text = text[:idx]
			}
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		var st statement
		st.line = line
		if idx := strings.Index(text, ":"); idx >= 0 {
			label := strings.TrimSpace(text[:idx])
			if !isIdent(label) {
				a.errorf(line, "invalid label %q", label)
				continue
			}
			st.label = label
			text = strings.TrimSpace(text[idx+1:])
		}
		if text != "" {
			fields := strings.SplitN(text, " ", 2)
			st.op = strings.ToLower(fields[0])
			if len(fields) > 1 {
				for _, arg := range strings.Split(fields[1], ",") {
					st.args = append(st.args, strings.TrimSpace(arg))
				}
			}
		}
		a.stmts = append(a.stmts, st)
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		digit := r >= '0' && r <= '9'
		if !alpha && !(digit && i > 0) {
			return false
		}
	}
	return true
}

// size returns the number of bytes a statement occupies.
func (a *assembler) size(st *statement) uint64 {
	switch st.op {
	case "":
		return 0
	case ".org", ".align":
		return 0 // handled specially
	case ".quad", ".double":
		return uint64(8 * len(st.args))
	case ".space":
		n, err := parseInt(st.args[0])
		if err != nil || n < 0 {
			return 0
		}
		return uint64(n)
	case "li", "lda":
		return 8 // fixed two-word expansion
	default:
		return 4
	}
}

// pass1 assigns addresses to labels.
func (a *assembler) pass1() {
	loc := uint64(DefaultOrg)
	for i := range a.stmts {
		st := &a.stmts[i]
		if st.label != "" {
			if _, dup := a.labels[st.label]; dup {
				a.errorf(st.line, "duplicate label %q", st.label)
			}
			a.labels[st.label] = loc
		}
		switch st.op {
		case ".org":
			if len(st.args) != 1 {
				a.errorf(st.line, ".org takes one address")
				continue
			}
			v, err := parseInt(st.args[0])
			if err != nil || v < 0 {
				a.errorf(st.line, ".org: bad address %q", st.args[0])
				continue
			}
			loc = uint64(v)
			if st.label != "" {
				a.labels[st.label] = loc
			}
		case ".align":
			if len(st.args) != 1 {
				a.errorf(st.line, ".align takes one power of two")
				continue
			}
			v, err := parseInt(st.args[0])
			if err != nil || v <= 0 || v&(v-1) != 0 {
				a.errorf(st.line, ".align: bad alignment %q", st.args[0])
				continue
			}
			loc = (loc + uint64(v) - 1) &^ (uint64(v) - 1)
			if st.label != "" {
				a.labels[st.label] = loc
			}
		case ".space":
			if len(st.args) != 1 {
				a.errorf(st.line, ".space takes one size")
				continue
			}
			if _, err := parseInt(st.args[0]); err != nil {
				a.errorf(st.line, ".space: bad size %q", st.args[0])
				continue
			}
			loc += a.size(st)
		default:
			loc += a.size(st)
		}
	}
}

// pass2 emits bytes.
func (a *assembler) pass2() {
	a.loc = DefaultOrg
	a.curStart = DefaultOrg
	for i := range a.stmts {
		st := &a.stmts[i]
		switch st.op {
		case "":
		case ".org":
			v, _ := parseInt(st.args[0])
			a.setLoc(uint64(v))
		case ".align":
			v, _ := parseInt(st.args[0])
			a.setLoc((a.loc + uint64(v) - 1) &^ (uint64(v) - 1))
		case ".space":
			n, _ := parseInt(st.args[0])
			a.emitBytes(make([]byte, n))
		case ".quad":
			for _, arg := range st.args {
				v, err := a.value(st, arg)
				if err != nil {
					a.errorf(st.line, ".quad: %v", err)
					continue
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				a.emitBytes(b[:])
			}
		case ".double":
			for _, arg := range st.args {
				f, err := strconv.ParseFloat(arg, 64)
				if err != nil {
					a.errorf(st.line, ".double: bad value %q", arg)
					continue
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
				a.emitBytes(b[:])
			}
		default:
			a.instruction(st)
		}
	}
	a.flush()
}

func (a *assembler) setLoc(v uint64) {
	a.flush()
	a.loc = v
	a.curStart = v
}

func (a *assembler) flush() {
	if len(a.cur) > 0 {
		a.chunks[a.curStart] = a.cur
		a.cur = nil
	}
	a.curStart = a.loc
}

func (a *assembler) emitBytes(b []byte) {
	a.cur = append(a.cur, b...)
	a.loc += uint64(len(b))
}

func (a *assembler) emit(st *statement, in isa.Inst) {
	if !a.haveFirst {
		a.haveFirst = true
		a.firstInstr = a.loc
	}
	w, err := isa.Encode(in)
	if err != nil {
		a.errorf(st.line, "%v", err)
		w = 0
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	a.emitBytes(b[:])
}

// value resolves a numeric literal or label reference.
func (a *assembler) value(st *statement, s string) (int64, error) {
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	if addr, ok := a.labels[s]; ok {
		return int64(addr), nil
	}
	return 0, fmt.Errorf("undefined symbol %q", s)
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

func (a *assembler) reg(st *statement, s string, fp bool) uint8 {
	prefix := byte('r')
	if fp {
		prefix = 'f'
	}
	if len(s) >= 2 && s[0] == prefix {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < 32 {
			return uint8(n)
		}
	}
	a.errorf(st.line, "bad %c-register %q", prefix, s)
	return 0
}

// memOperand parses "imm(rN)" or "(rN)".
func (a *assembler) memOperand(st *statement, s string) (int32, uint8) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		a.errorf(st.line, "bad memory operand %q", s)
		return 0, 0
	}
	var off int64
	if open > 0 {
		var err error
		off, err = a.value(st, strings.TrimSpace(s[:open]))
		if err != nil {
			a.errorf(st.line, "bad displacement in %q: %v", s, err)
		}
	}
	base := a.reg(st, strings.TrimSpace(s[open+1:len(s)-1]), false)
	return int32(off), base
}

// branchDisp computes the word displacement from the instruction after st
// to the target label or literal.
func (a *assembler) branchDisp(st *statement, s string) int32 {
	if v, err := parseInt(s); err == nil {
		return int32(v)
	}
	target, ok := a.labels[s]
	if !ok {
		a.errorf(st.line, "undefined branch target %q", s)
		return 0
	}
	disp := (int64(target) - int64(a.loc+4)) / 4
	if disp < isa.MinDisp || disp > isa.MaxDisp {
		a.errorf(st.line, "branch target %q out of range (disp %d)", s, disp)
		return 0
	}
	return int32(disp)
}

func (a *assembler) want(st *statement, n int) bool {
	if len(st.args) != n {
		a.errorf(st.line, "%s: want %d operands, got %d", st.op, n, len(st.args))
		return false
	}
	return true
}

func (a *assembler) instruction(st *statement) {
	// Pseudo-instructions first.
	switch st.op {
	case "li", "lda":
		if !a.want(st, 2) {
			a.emitBytes(make([]byte, 8))
			return
		}
		rd := a.reg(st, st.args[0], false)
		v, err := a.value(st, st.args[1])
		if err != nil {
			a.errorf(st.line, "%s: %v", st.op, err)
			v = 0
		}
		a.emitLoadConst(st, rd, v)
		return
	case "mov":
		if !a.want(st, 2) {
			return
		}
		a.emit(st, isa.Inst{Op: isa.OpAddi, Rd: a.reg(st, st.args[0], false), Ra: a.reg(st, st.args[1], false)})
		return
	case "neg":
		if !a.want(st, 2) {
			return
		}
		a.emit(st, isa.Inst{Op: isa.OpSub, Rd: a.reg(st, st.args[0], false), Ra: isa.ZeroReg, Rb: a.reg(st, st.args[1], false)})
		return
	case "clr":
		if !a.want(st, 1) {
			return
		}
		a.emit(st, isa.Inst{Op: isa.OpAddi, Rd: a.reg(st, st.args[0], false), Ra: isa.ZeroReg})
		return
	}

	op, ok := isa.OpcodeByName(st.op)
	if !ok {
		a.errorf(st.line, "unknown mnemonic %q", st.op)
		return
	}
	in := isa.Inst{Op: op}
	fp := func(field string) bool { return strings.HasPrefix(field, "f") }
	switch op.Format() {
	case isa.FormatN:
		if !a.want(st, 0) {
			return
		}
	case isa.FormatR:
		// Unary FP ops take 2 operands; all others take 3.
		switch op {
		case isa.OpFSqrt, isa.OpFMov, isa.OpFNeg, isa.OpCvtIF, isa.OpCvtFI,
			isa.OpSextB, isa.OpSextW, isa.OpPopcnt, isa.OpClz:
			if !a.want(st, 2) {
				return
			}
			in.Rd = a.reg(st, st.args[0], fp(st.args[0]))
			in.Ra = a.reg(st, st.args[1], fp(st.args[1]))
		default:
			if !a.want(st, 3) {
				return
			}
			in.Rd = a.reg(st, st.args[0], fp(st.args[0]))
			in.Ra = a.reg(st, st.args[1], fp(st.args[1]))
			in.Rb = a.reg(st, st.args[2], fp(st.args[2]))
		}
	case isa.FormatI:
		if !a.want(st, 3) {
			return
		}
		in.Rd = a.reg(st, st.args[0], false)
		in.Ra = a.reg(st, st.args[1], false)
		v, err := a.value(st, st.args[2])
		if err != nil {
			a.errorf(st.line, "%v", err)
		}
		in.Imm = int32(v)
	case isa.FormatM:
		if !a.want(st, 2) {
			return
		}
		in.Rd = a.reg(st, st.args[0], op == isa.OpLdf || op == isa.OpStf)
		in.Imm, in.Ra = a.memOperand(st, st.args[1])
	case isa.FormatB:
		if op == isa.OpBr {
			if !a.want(st, 1) {
				return
			}
			in.Ra = isa.ZeroReg
			in.Imm = a.branchDisp(st, st.args[0])
		} else {
			if !a.want(st, 2) {
				return
			}
			in.Ra = a.reg(st, st.args[0], false)
			in.Imm = a.branchDisp(st, st.args[1])
		}
	case isa.FormatJ:
		if !a.want(st, 2) {
			return
		}
		in.Rd = a.reg(st, st.args[0], false)
		arg := st.args[1]
		if strings.HasPrefix(arg, "(") && strings.HasSuffix(arg, ")") {
			arg = arg[1 : len(arg)-1]
		}
		in.Ra = a.reg(st, strings.TrimSpace(arg), false)
	}
	a.emit(st, in)
}

// emitLoadConst emits the fixed two-word li/lda expansion:
// ldih rd, r31, hi ; addi rd, rd, lo. Values must fit in 28 signed bits.
func (a *assembler) emitLoadConst(st *statement, rd uint8, v int64) {
	lo := int32(int16(v&0x3fff) << 2 >> 2) // sign-extend low 14 bits
	hi := (v - int64(lo)) >> 14
	if hi < isa.MinImm || hi > isa.MaxImm {
		a.errorf(st.line, "constant %d out of 28-bit range", v)
		hi, lo = 0, 0
	}
	a.emit(st, isa.Inst{Op: isa.OpLdih, Rd: rd, Ra: isa.ZeroReg, Imm: int32(hi)})
	a.emit(st, isa.Inst{Op: isa.OpAddi, Rd: rd, Ra: rd, Imm: lo})
}

func (a *assembler) finish() (*Program, error) {
	p := &Program{Labels: a.labels}
	starts := make([]uint64, 0, len(a.chunks))
	for s := range a.chunks {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var prevEnd uint64
	for _, s := range starts {
		data := a.chunks[s]
		if len(p.Segments) > 0 && s < prevEnd {
			return nil, fmt.Errorf("asm: overlapping segments at %#x", s)
		}
		p.Segments = append(p.Segments, Segment{Addr: s, Data: data})
		prevEnd = s + uint64(len(data))
	}
	p.Entry = a.firstInstr
	if addr, ok := a.labels["start"]; ok {
		p.Entry = addr
	}
	if !a.haveFirst {
		return nil, errors.New("asm: program contains no instructions")
	}
	return p, nil
}

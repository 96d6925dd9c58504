// Package config defines the processor and device configurations of the
// paper's evaluation (Tables I and II) and the named models compared in
// Section VI: BIG, HALF, LITTLE, BIG+FX, and HALF+FX, plus the DUAL-SI
// and DUAL pair of the extended big.LITTLE landscape.
package config

import (
	"fmt"

	"fxa/internal/bpred"
	"fxa/internal/mem"
)

// CoreKind selects the timing model.
type CoreKind int

const (
	OutOfOrder       CoreKind = iota // internal/core
	InOrder                          // internal/inorder
	DualIssueInOrder                 // internal/inorder, INT/FP pairing on slot 1
)

// String returns the kind's registry name, matching what engine.Kinds and
// fxabench -list-models print.
func (k CoreKind) String() string {
	switch k {
	case OutOfOrder:
		return "out-of-order"
	case InOrder:
		return "in-order"
	case DualIssueInOrder:
		return "dual-issue-in-order"
	default:
		return fmt.Sprintf("CoreKind(%d)", int(k))
	}
}

// Kinds returns every defined CoreKind in declaration order. Model
// validation and the registry-driven test suites iterate it instead of
// hard-coding the kind list.
func Kinds() []CoreKind {
	return []CoreKind{OutOfOrder, InOrder, DualIssueInOrder}
}

// IXU describes the in-order execution unit of an FXA model.
type IXU struct {
	// StageFUs is the number of FUs in each IXU stage, front to back
	// (the paper's default is [3,1,1]: 3 ways × 1 stage + 1 way × 2
	// stages, Section III-A2).
	StageFUs []int
	// BypassMaxDist is the maximum stage distance an IXU result may be
	// bypassed across. 0 means a full bypass network. The paper's
	// optimized configuration omits bypassing between FUs more distant
	// than two stages (BypassMaxDist = 2).
	BypassMaxDist int
}

// Stages returns the IXU depth.
func (x IXU) Stages() int { return len(x.StageFUs) }

// TotalFUs returns the FU count n of the IXU.
func (x IXU) TotalFUs() int {
	n := 0
	for _, f := range x.StageFUs {
		n += f
	}
	return n
}

// Reach reports whether a result produced at stage ps can be bypassed to a
// consumer executing at stage cs.
func (x IXU) Reach(ps, cs int) bool {
	if x.BypassMaxDist <= 0 {
		return true
	}
	d := cs - ps
	if d < 0 {
		d = -d
	}
	return d <= x.BypassMaxDist
}

// Model is one processor configuration (a column of Table I, possibly with
// an IXU attached).
type Model struct {
	Name string
	Kind CoreKind

	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	IQEntries int // 0 for in-order cores

	IntFUs int
	MemFUs int
	FPFUs  int

	ROBEntries int
	IntPRF     int
	FPPRF      int
	LQEntries  int
	SQEntries  int

	// FrontendDepth is the number of pipeline stages between fetch and
	// rename (exclusive of both). Together with the back-end stages it
	// determines the branch misprediction penalty; values are chosen so
	// the measured penalties match Table I (11 cycles BIG, 8 LITTLE).
	FrontendDepth int
	// RedirectLatency is the fetch-redirect bubble after a resolved
	// misprediction.
	RedirectLatency int

	// MSHRs bounds the number of outstanding L1D misses (memory-level
	// parallelism). 0 means unlimited.
	MSHRs int

	// FX enables the IXU (the FXA mechanism). FXA adds one front-end
	// stage for the sequential scoreboard→PRF read (Section III-B).
	FX  bool
	IXU IXU

	// RENO enables rename-stage move elimination (Petric, Sha & Roth,
	// ISCA 2005). Section VII-C of the paper notes that RENO and FXA
	// compose: RENO removes instructions at rename, FXA executes the
	// rest in the front end. Register moves and zero idioms are
	// eliminated by aliasing the RAT entry, consuming no execution
	// resources at all.
	RENO bool

	Bpred bpred.Config
	Mem   mem.HierarchyConfig
}

// Validate checks parameter consistency.
func (m *Model) Validate() error {
	known := false
	for _, k := range Kinds() {
		if m.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("config: %s: unknown core kind %d (known kinds: %v)", m.Name, int(m.Kind), Kinds())
	}
	if m.FetchWidth <= 0 || m.IssueWidth <= 0 || m.CommitWidth <= 0 {
		return fmt.Errorf("config: %s: non-positive width", m.Name)
	}
	if m.Kind == DualIssueInOrder && m.IssueWidth > 2 {
		return fmt.Errorf("config: %s: dual-issue core pairs at most 2 instructions per cycle (IssueWidth %d)",
			m.Name, m.IssueWidth)
	}
	if m.Kind == OutOfOrder {
		if m.IQEntries <= 0 || m.ROBEntries <= 0 || m.IntPRF <= 32 || m.FPPRF <= 32 {
			return fmt.Errorf("config: %s: out-of-order core needs IQ/ROB/PRF", m.Name)
		}
		if m.LQEntries <= 0 || m.SQEntries <= 0 {
			return fmt.Errorf("config: %s: out-of-order core needs an LSQ", m.Name)
		}
	}
	if m.IntFUs <= 0 || m.MemFUs <= 0 || m.FPFUs <= 0 {
		return fmt.Errorf("config: %s: need at least one FU of each kind", m.Name)
	}
	if m.FX {
		if m.Kind != OutOfOrder {
			return fmt.Errorf("config: %s: FXA requires an out-of-order backend", m.Name)
		}
		if m.IXU.Stages() == 0 {
			return fmt.Errorf("config: %s: FX model needs IXU stages", m.Name)
		}
		for i, f := range m.IXU.StageFUs {
			if f <= 0 {
				return fmt.Errorf("config: %s: IXU stage %d has %d FUs", m.Name, i, f)
			}
		}
	}
	return nil
}

// The five models of Section VI-B. Each call returns a fresh value the
// caller may mutate.

// Big returns the baseline: an out-of-order superscalar with Cortex-A57-
// class parameters (Table I, column BIG).
func Big() Model {
	return Model{
		Name:        "BIG",
		Kind:        OutOfOrder,
		FetchWidth:  3,
		IssueWidth:  4,
		CommitWidth: 4,
		IQEntries:   64,
		IntFUs:      2, MemFUs: 2, FPFUs: 2,
		ROBEntries: 128,
		IntPRF:     128, FPPRF: 96,
		LQEntries: 32, SQEntries: 32,
		FrontendDepth:   4,
		RedirectLatency: 2,
		MSHRs:           8,
		Bpred:           bpred.DefaultConfig(),
		Mem:             mem.DefaultHierarchyConfig(),
	}
}

// Half returns BIG with the IQ halved in both issue width and capacity
// (Table I, column HALF).
func Half() Model {
	m := Big()
	m.Name = "HALF"
	m.IssueWidth = 2
	m.IQEntries = 32
	return m
}

// Little returns the in-order model with Cortex-A53-class parameters
// (Table I, column LITTLE).
func Little() Model {
	return Model{
		Name:        "LITTLE",
		Kind:        InOrder,
		FetchWidth:  2,
		IssueWidth:  2,
		CommitWidth: 2,
		IntFUs:      2, MemFUs: 1, FPFUs: 1,
		FrontendDepth:   4,
		RedirectLatency: 1,
		MSHRs:           4,
		Bpred:           bpred.DefaultConfig(),
		Mem:             mem.DefaultHierarchyConfig(),
	}
}

// defaultIXU is the paper's chosen IXU: three stages with [3,1,1] FUs and
// bypassing omitted beyond two stages (Sections III-A2, VI-B).
func defaultIXU() IXU {
	return IXU{StageFUs: []int{3, 1, 1}, BypassMaxDist: 2}
}

// HalfFX returns the paper's FXA proposal: HALF plus the IXU (Table I +
// Section VI-B, model HALF+FX).
func HalfFX() Model {
	m := Half()
	m.Name = "HALF+FX"
	m.FX = true
	m.IXU = defaultIXU()
	return m
}

// BigFX returns BIG plus the IXU (model BIG+FX).
func BigFX() Model {
	m := Big()
	m.Name = "BIG+FX"
	m.FX = true
	m.IXU = defaultIXU()
	return m
}

// Dual returns the dual-issue in-order model: LITTLE's pipeline with one
// FU per class and a mixed INT/FP pairing rule in the second issue slot
// (Colagrande & Benini's pseudo-dual-issue discipline: a cycle's second
// instruction must come from the opposite integer/floating-point domain,
// so the pair never contends for a domain's register-file ports).
func Dual() Model {
	return Model{
		Name:        "DUAL",
		Kind:        DualIssueInOrder,
		FetchWidth:  2,
		IssueWidth:  2,
		CommitWidth: 2,
		IntFUs:      1, MemFUs: 1, FPFUs: 1,
		FrontendDepth:   3,
		RedirectLatency: 1,
		MSHRs:           2,
		Bpred:           bpred.DefaultConfig(),
		Mem:             mem.DefaultHierarchyConfig(),
	}
}

// DualSI returns DUAL restricted to one issue slot: the single-issue
// baseline the pairing rule is measured against.
func DualSI() Model {
	m := Dual()
	m.Name = "DUAL-SI"
	m.IssueWidth = 1
	return m
}

// Models returns the five evaluation models in the paper's order. The
// sweep fabric, sampling suite and the paper's figures iterate exactly
// this set; additional core kinds appear only in AllModels.
func Models() []Model {
	return []Model{Little(), Big(), BigFX(), Half(), HalfFX()}
}

// AllModels returns every named model across all core kinds: the paper's
// five plus the dual-issue pair. The registry-driven test suites and the
// big.LITTLE landscape iterate this set.
func AllModels() []Model {
	return append(Models(), DualSI(), Dual())
}

// ByName returns the named model (case-sensitive: "BIG", "HALF", "LITTLE",
// "BIG+FX", "HALF+FX", "DUAL-SI", "DUAL").
func ByName(name string) (Model, error) {
	for _, m := range AllModels() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("config: unknown model %q", name)
}

// Device is the technology configuration of Table II.
type Device struct {
	TechnologyNM    int
	TemperatureK    int
	VDD             float64
	CoreLeakNAperUM float64 // high-performance transistors (core)
	L2LeakNAperUM   float64 // low-standby-power transistors (L2)
}

// DefaultDevice returns Table II: 22 nm FinFET, 320 K, 0.8 V, HP core
// transistors (Ioff 127 nA/µm), LSTP L2 transistors (Ioff 0.0968 nA/µm).
func DefaultDevice() Device {
	return Device{
		TechnologyNM:    22,
		TemperatureK:    320,
		VDD:             0.8,
		CoreLeakNAperUM: 127,
		L2LeakNAperUM:   0.0968,
	}
}

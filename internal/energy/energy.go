// Package energy is the McPAT substitute: an analytic energy and area
// model for the evaluated processor configurations, driven by the event
// counters of the timing models. It implements the structural
// proportionalities the paper's energy argument rests on:
//
//   - multi-ported RAM/CAM access energy scales with capacity × ports
//     (Section I, citing Weste & Harris), so halving the IQ's width and
//     size quarters its per-access energy, and dispatch filtering by the
//     IXU cuts its access count (Section V-C);
//   - bypass-network energy scales with the number of FUs driving the
//     result wires (Section V-A2), with the IXU and OXU networks separate;
//   - FUs consume no dynamic energy when instructions pass through the
//     IXU as NOPs (Section V-A1);
//   - static power scales with area and device leakage; the L2 uses
//     low-standby-power transistors (Table II) so its static energy is
//     negligible, while FU-class logic uses fast, leaky transistors.
//
// Absolute values are in picojoule-like units whose scale is set by the
// calibration constants in params.go; every claim reproduced from the
// paper is a ratio, which depends only on the proportionalities above.
package energy

import (
	"fmt"

	"fxa/internal/config"
	"fxa/internal/engine"
	"fxa/internal/isa"
)

// Component is one slice of the Figure 8a / 9a breakdowns.
type Component int

const (
	IQ Component = iota
	LSQ
	PRF // "(P)RF" in the figures: PRF for OoO cores, the 32-entry RF for LITTLE
	RAT
	IXU
	FUs // OXU integer/memory FUs and their bypass network
	Others
	FPU
	Decoder
	L1D
	L1I
	L2
	NumComponents
)

// String returns the figure label of the component.
func (c Component) String() string {
	switch c {
	case IQ:
		return "IQ"
	case LSQ:
		return "LSQ"
	case PRF:
		return "(P)RF"
	case RAT:
		return "RAT"
	case IXU:
		return "IXU"
	case FUs:
		return "FUs"
	case Others:
		return "OTHERS"
	case FPU:
		return "FPU"
	case Decoder:
		return "Decoder"
	case L1D:
		return "L1D"
	case L1I:
		return "L1I"
	case L2:
		return "L2"
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Components lists all components in the figures' stacking order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown is the energy of one run, split by component and by
// dynamic/static.
type Breakdown struct {
	Dynamic [NumComponents]float64
	Static  [NumComponents]float64
}

// Of returns the total energy of one component.
func (b *Breakdown) Of(c Component) float64 { return b.Dynamic[c] + b.Static[c] }

// Total returns the whole-core energy.
func (b *Breakdown) Total() float64 {
	var t float64
	for c := 0; c < int(NumComponents); c++ {
		t += b.Dynamic[c] + b.Static[c]
	}
	return t
}

// TotalDynamic returns the dynamic energy across components.
func (b *Breakdown) TotalDynamic() float64 {
	var t float64
	for _, v := range b.Dynamic {
		t += v
	}
	return t
}

// TotalStatic returns the static energy across components.
func (b *Breakdown) TotalStatic() float64 {
	var t float64
	for _, v := range b.Static {
		t += v
	}
	return t
}

// Estimate computes the energy breakdown of one simulation run.
func Estimate(m config.Model, dev config.Device, r engine.Result) Breakdown {
	p := defaultParams
	var b Breakdown
	c := &r.Counters

	// Every non-out-of-order kind (in-order, dual-issue in-order) takes
	// the scoreboarded-register-file energy path: no IQ/LSQ/RAT, and the
	// architectural register file stands in for the PRF.
	inorder := m.Kind != config.OutOfOrder

	// ---- Issue queue (Section V-C) ----
	if !inorder {
		perAccess := p.IQPerEntryPort * float64(m.IQEntries) * iqPorts(m)
		accesses := float64(c.IQDispatch) + float64(c.IQIssue)
		searches := float64(c.IQWakeups) * p.IQWakeupFactor
		b.Dynamic[IQ] = perAccess * (accesses + searches)
	}

	// ---- LSQ (Section V-D) ----
	if !inorder {
		searchE := p.LSQPerEntryPort * float64(m.LQEntries+m.SQEntries) / 2 * float64(m.MemFUs)
		writes := float64(c.LQWrites+c.SQWrites) * p.LSQWrite
		searches := float64(c.LQSearches+c.SQSearches) * searchE
		b.Dynamic[LSQ] = writes + searches
	}

	// ---- Register file (Section V-B) ----
	regEntries, regPorts := float64(m.IntPRF+m.FPPRF), prfPorts(m)
	if inorder {
		regEntries, regPorts = float64(isa.NumIntRegs+isa.NumFPRegs), 6
	}
	perRF := p.RFPerEntryPort * regEntries * regPorts
	b.Dynamic[PRF] = perRF * float64(c.PRFReads+c.PRFWrites)
	// The PRF scoreboard is 1/64 the capacity of the PRF (Section III-B).
	b.Dynamic[PRF] += perRF / 64 * float64(c.ScoreboardReads)

	// ---- RAT ----
	if !inorder {
		b.Dynamic[RAT] = p.RATAccess * float64(c.RATReads+c.RATWrites)
	}

	// ---- Execution: FU ops split by where they executed ----
	fuOpE := func(cls isa.Class) float64 {
		switch cls {
		case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch, isa.ClassJump, isa.ClassHalt:
			return p.ALUOp
		case isa.ClassIntMul:
			return p.MulOp
		case isa.ClassIntDiv:
			return p.DivOp
		case isa.ClassLoad, isa.ClassStore:
			return p.AGUOp
		case isa.ClassFP:
			return p.FPAddOp
		case isa.ClassFPMul:
			return p.FPMulOp
		case isa.ClassFPDiv:
			return p.FPDivOp
		}
		return p.ALUOp
	}
	// FUOps counts executions in both domains; the IXU-executed share
	// (all of it 1-cycle INT / branch / AGU work) is moved to the IXU
	// component.
	ixuOps := float64(c.IXUExec)
	ixuMem := float64(c.IXULoadExec + c.IXUStoreExec)
	ixuOpEnergy := (ixuOps-ixuMem)*p.ALUOp + ixuMem*p.AGUOp
	b.Dynamic[IXU] = ixuOpEnergy
	// IXU bypass: result-wire drive scales with the IXU's FU count
	// (Section V-A2); pass-through traversals are free (Section V-A1).
	if m.FX {
		b.Dynamic[IXU] += float64(c.IXUBypassDrives) * p.BypassPerFU * float64(m.IXU.TotalFUs())
	}

	var allNonFP, fpuE float64
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		n := float64(c.FUOps[cls])
		if n == 0 {
			continue
		}
		e := fuOpE(cls)
		switch cls {
		case isa.ClassFP, isa.ClassFPMul, isa.ClassFPDiv:
			fpuE += n * e
		default:
			allNonFP += n * e
		}
	}
	oxuFU := allNonFP - ixuOpEnergy
	if oxuFU < 0 {
		oxuFU = 0
	}
	oxuFUCount := float64(m.IntFUs + m.MemFUs)
	b.Dynamic[FUs] = oxuFU + float64(c.OXUBypassDrives)*p.BypassPerFU*oxuFUCount
	// Wrong-path execution burns FU and scheduling energy (Section VI-E:
	// LITTLE executes far fewer flushed instructions).
	b.Dynamic[FUs] += float64(c.WrongPathExec) * (p.ALUOp + p.BypassPerFU*oxuFUCount)
	if !inorder {
		b.Dynamic[IQ] += float64(c.WrongPathExec) * p.IQPerEntryPort * float64(m.IQEntries) * iqPorts(m)
	}
	b.Dynamic[FPU] = fpuE

	// ---- Front end ----
	b.Dynamic[Decoder] = p.DecodeOp * (float64(c.DecodeOps) + float64(c.WrongPathFetched))
	b.Dynamic[Others] = p.FetchOp*(float64(c.FetchedInsts)+float64(c.WrongPathFetched)) +
		p.ROBAccess*float64(c.ROBWrites+c.ROBReads)
	if !inorder {
		// Wrong-path rename work.
		b.Dynamic[RAT] += p.RATAccess * 2 * float64(c.WrongPathFetched)
	}

	// ---- Caches ----
	b.Dynamic[L1I] = p.L1ILineFetch * float64(r.L1I.Accesses()+r.L1I.Prefetches)
	b.Dynamic[L1D] = p.L1Access * float64(r.L1D.Accesses()+r.L1D.Prefetches)
	b.Dynamic[L2] = p.L2Access * float64(r.L2.Accesses()+r.L2.Prefetches)

	// ---- Static energy: area × leakage × time ----
	area := AreaOf(m)
	cycles := float64(c.Cycles)
	for comp := 0; comp < int(NumComponents); comp++ {
		leak := p.StaticPerArea
		switch Component(comp) {
		case FUs, IXU, FPU:
			// Fast, leaky transistors (Section V-A1).
			leak *= p.FULeakFactor
		case L2:
			// Low-standby-power transistors (Table II).
			leak *= dev.L2LeakNAperUM / dev.CoreLeakNAperUM
		}
		b.Static[comp] = area.Area[comp] * leak * cycles
	}
	return b
}

// iqPorts is the port count of the IQ: issue grants, wakeup/select, and
// dispatch ports.
func iqPorts(m config.Model) float64 {
	return float64(2*m.IssueWidth + m.FetchWidth)
}

// prfPorts is the port count of the PRF (nine in both the conventional
// core and FXA — Section V-B).
func prfPorts(m config.Model) float64 {
	return float64(2*m.IssueWidth + 1)
}

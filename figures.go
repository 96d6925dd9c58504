package fxa

import (
	"context"
	"fmt"
	"math"

	"fxa/internal/config"
	"fxa/internal/energy"
	"fxa/internal/mem"
	"fxa/internal/report"
	"fxa/internal/sweep"
)

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// modelOrder is the paper's bar order in Figures 7-10.
var modelOrder = []string{"LITTLE", "BIG", "BIG+FX", "HALF", "HALF+FX"}

// Table1 renders the processor configurations (Table I).
func Table1() *report.Table {
	t := &report.Table{
		Title:   "Table I: Processor Configurations",
		Headers: []string{"parameter", "BIG", "HALF", "LITTLE"},
	}
	b, h, l := Big(), Half(), Little()
	kind := func(m Model) string {
		if m.Kind == config.InOrder {
			return "in-order"
		}
		return "out-of-order"
	}
	iq := func(m Model) string {
		if m.Kind == config.InOrder {
			return "N/A"
		}
		return fmt.Sprintf("%d entries", m.IQEntries)
	}
	na := func(m Model, s string) string {
		if m.Kind == config.InOrder {
			return "N/A"
		}
		return s
	}
	t.AddRow("type", kind(b), kind(h), kind(l))
	t.AddRow("fetch width", fmt.Sprint(b.FetchWidth), fmt.Sprint(h.FetchWidth), fmt.Sprint(l.FetchWidth))
	t.AddRow("issue width", fmt.Sprint(b.IssueWidth), fmt.Sprint(h.IssueWidth), fmt.Sprint(l.IssueWidth))
	t.AddRow("issue queue", iq(b), iq(h), iq(l))
	fu := func(m Model) string { return fmt.Sprintf("%d, %d, %d", m.IntFUs, m.MemFUs, m.FPFUs) }
	t.AddRow("FU (int, mem, fp)", fu(b), fu(h), fu(l))
	t.AddRow("ROB", fmt.Sprintf("%d entries", b.ROBEntries), fmt.Sprintf("%d entries", h.ROBEntries), "N/A")
	t.AddRow("int/fp PRF", fmt.Sprintf("%d/%d", b.IntPRF, b.FPPRF), fmt.Sprintf("%d/%d", h.IntPRF, h.FPPRF), "N/A")
	t.AddRow("ld/st queue", na(b, fmt.Sprintf("%d/%d", b.LQEntries, b.SQEntries)), na(h, fmt.Sprintf("%d/%d", h.LQEntries, h.SQEntries)), "N/A")
	t.AddRow("branch pred.",
		fmt.Sprintf("g-share, %dK PHT, %d BTB", b.Bpred.PHTEntries/1024, b.Bpred.BTBEntries),
		"same", "same")
	t.AddRow("L1C (I)", cacheStr(b.Mem.L1I), "same", "same")
	t.AddRow("L1C (D)", cacheStr(b.Mem.L1D), "same", "same")
	t.AddRow("L2C", cacheStr(b.Mem.L2), "same", "same")
	t.AddRow("main mem.", fmt.Sprintf("%d cycles", b.Mem.DRAMLatency), "same", "same")
	return t
}

func cacheStr(c mem.CacheConfig) string {
	return fmt.Sprintf("%d KB, %d way, %d B/line, %d cycles",
		c.SizeBytes>>10, c.Ways, c.LineBytes, c.HitLatency)
}

// Table2 renders the device configuration (Table II).
func Table2() *report.Table {
	d := config.DefaultDevice()
	t := &report.Table{
		Title:   "Table II: Device Configurations",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("technology", fmt.Sprintf("%d nm, Fin-FET", d.TechnologyNM))
	t.AddRow("temperature", fmt.Sprintf("%d K", d.TemperatureK))
	t.AddRow("VDD", fmt.Sprintf("%.1f V", d.VDD))
	t.AddRow("device type (core)", fmt.Sprintf("high performance (I off: %g nA/um)", d.CoreLeakNAperUM))
	t.AddRow("device type (L2)", fmt.Sprintf("low standby power (I off: %g nA/um)", d.L2LeakNAperUM))
	return t
}

// Figure7Table renders per-benchmark IPC relative to BIG for all models,
// with the group geometric means (Figure 7).
func (ev *Evaluation) Figure7Table() *report.Table {
	t := &report.Table{
		Title:   "Figure 7: IPC relative to BIG",
		Headers: append([]string{"benchmark"}, modelOrder...),
	}
	addMean := func(label string, g Group) {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = ev.GeomeanRelIPC(m, g)
		}
		t.AddF(label, 3, vals...)
	}
	lastFP := false
	for _, r := range ev.Rows {
		if r.Workload.FP && !lastFP {
			addMean("mean(INT)", GroupINT)
			lastFP = true
		}
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = r.RelIPC(m)
		}
		t.AddF(r.Workload.Name, 3, vals...)
	}
	addMean("mean(FP)", GroupFP)
	addMean("mean", GroupALL)
	return t
}

// Figure8aTable renders the whole-core energy breakdown relative to BIG
// (Figure 8a).
func (ev *Evaluation) Figure8aTable() *report.Table {
	comp := ev.MeanEnergyByComponent()
	t := &report.Table{
		Title:   "Figure 8a: Energy consumption relative to BIG (per component)",
		Headers: append([]string{"component"}, modelOrder...),
	}
	for _, c := range Components() {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = comp[m][c]
		}
		t.AddF(c.String(), 3, vals...)
	}
	tot := make([]float64, len(modelOrder))
	for i, m := range modelOrder {
		var s float64
		for _, v := range comp[m] {
			s += v
		}
		tot[i] = s
	}
	t.AddF("TOTAL", 3, tot...)
	return t
}

// Figure8bTable renders the FU + bypass-network energy split (Figure 8b).
func (ev *Evaluation) Figure8bTable() *report.Table {
	fu := ev.MeanFUEnergy()
	t := &report.Table{
		Title:   "Figure 8b: FU and bypass-network energy relative to BIG",
		Headers: append([]string{"part"}, modelOrder...),
	}
	get := func(f func(FUEnergySplit) float64) []float64 {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = f(fu[m])
		}
		return vals
	}
	t.AddF("OXU (dy.)", 3, get(func(s FUEnergySplit) float64 { return s.OXUDynamic })...)
	t.AddF("OXU (st.)", 3, get(func(s FUEnergySplit) float64 { return s.OXUStatic })...)
	t.AddF("IXU (dy.)", 3, get(func(s FUEnergySplit) float64 { return s.IXUDynamic })...)
	t.AddF("IXU (st.)", 3, get(func(s FUEnergySplit) float64 { return s.IXUStatic })...)
	t.AddF("TOTAL", 3, get(FUEnergySplit.Total)...)
	return t
}

// Figure9Tables renders the area breakdowns (Figures 9a and 9b) relative
// to BIG.
func Figure9Tables() (whole, detail *report.Table) {
	areas := map[string]AreaBreakdown{}
	for _, m := range Models() {
		areas[m.Name] = AreaOf(m)
	}
	bigArea := areas["BIG"]
	bigTotal := bigArea.Total()
	whole = &report.Table{
		Title:   "Figure 9a: Circuit area relative to BIG (per component)",
		Headers: append([]string{"component"}, modelOrder...),
	}
	for _, c := range Components() {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = areas[m].Area[c] / bigTotal
		}
		whole.AddF(c.String(), 4, vals...)
	}
	tot := make([]float64, len(modelOrder))
	for i, m := range modelOrder {
		a := areas[m]
		tot[i] = a.Total() / bigTotal
	}
	whole.AddF("TOTAL", 4, tot...)

	detail = &report.Table{
		Title:   "Figure 9b: Area of the core structures (FUs .. IQ) relative to BIG",
		Headers: append([]string{"component"}, modelOrder...),
	}
	for _, c := range []Component{energy.L1I, energy.FUs, energy.RAT, energy.IXU, energy.PRF, energy.LSQ, energy.IQ} {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = areas[m].Area[c] / bigTotal
		}
		detail.AddF(c.String(), 4, vals...)
	}
	return whole, detail
}

// Figure10Table renders the performance/energy ratio (inverse EDP)
// relative to BIG per group (Figure 10).
func (ev *Evaluation) Figure10Table() *report.Table {
	t := &report.Table{
		Title:   "Figure 10: Performance/energy ratio relative to BIG",
		Headers: append([]string{"group"}, modelOrder...),
	}
	for _, g := range []Group{GroupINT, GroupFP, GroupALL} {
		vals := make([]float64, len(modelOrder))
		for i, m := range modelOrder {
			vals[i] = ev.PER(m, g)
		}
		t.AddF(g.String(), 3, vals...)
	}
	return t
}

// IXUConfigPoint is one x-axis point of Figure 11.
type IXUConfigPoint struct {
	Label    string
	StageFUs []int
}

// Figure11Configs returns the IXU FU arrangements swept in Figure 11,
// from the full 3×3 array down to the paper's chosen [3,1,1] — plus two
// points below it ([2,1,1], [1,1,1]) that show where the entry stage
// finally starves and performance falls off.
func Figure11Configs() []IXUConfigPoint {
	return []IXUConfigPoint{
		{"[3,3,3]", []int{3, 3, 3}},
		{"[3,3,2]", []int{3, 3, 2}},
		{"[3,3,1]", []int{3, 3, 1}},
		{"[3,2,1]", []int{3, 2, 1}},
		{"[3,1,1]", []int{3, 1, 1}},
		{"[2,1,1]", []int{2, 1, 1}},
		{"[1,1,1]", []int{1, 1, 1}},
	}
}

// RunFigure11 sweeps the IXU FU configuration with the full and the
// optimized (distance-2) bypass network, reporting geometric-mean IPC over
// all benchmarks relative to the [3,3,3]/full configuration (Figure 11).
// It runs one sweep job per (IXU variant, workload) pair on a bounded
// worker pool with optional result caching, assembled deterministically
// in sweep order.
func RunFigure11(ctx context.Context, maxInsts uint64, opts SweepOptions) (*report.Series, SweepStats, error) {
	s := &report.Series{
		Title:   "Figure 11: IPC versus IXU configurations (relative to [3,3,3]/full)",
		XLabel:  "IXU config",
		Columns: []string{"full", "opt"},
	}
	type variant struct {
		label string
		model Model
	}
	pts := Figure11Configs()
	var variants []variant
	for _, pt := range pts {
		for _, bypass := range []int{0, 2} { // 0 = full network, 2 = omit beyond 2 stages
			m := HalfFX()
			m.IXU.StageFUs = pt.StageFUs
			m.IXU.BypassMaxDist = bypass
			variants = append(variants, variant{fmt.Sprintf("%s bypass=%d", pt.Label, bypass), m})
		}
	}
	ws := Workloads()
	jobs := make([]sweep.Job, 0, len(variants)*len(ws))
	for _, v := range variants {
		for _, w := range ws {
			j := runJob(v.model, w, 0, maxInsts, nil)
			j.Label = v.label + " " + w.Name
			jobs = append(jobs, j)
		}
	}
	results, stats, err := sweep.Run(ctx, jobs, opts)
	if err != nil {
		return nil, stats, err
	}
	var baseline float64
	for pi, pt := range pts {
		var row []float64
		for b := 0; b < 2; b++ {
			vi := pi*2 + b
			_, ipc, err := groupGeomeans(ws, results[vi*len(ws):(vi+1)*len(ws)], GroupALL)
			if err != nil {
				return nil, stats, err
			}
			if baseline == 0 {
				baseline = ipc // first point: [3,3,3] full
			}
			row = append(row, ipc/baseline)
		}
		s.X = append(s.X, pt.Label)
		s.Y = append(s.Y, row)
	}
	return s, stats, nil
}

// RunFigure1213 sweeps the IXU depth from 1 to 6 stages (3 FUs per stage,
// full bypass — the unoptimized configuration of Section VI-H2) and
// reports, per group: the fraction of instructions executed in the IXU
// (Figure 12) and IPC relative to BIG (Figure 13). It runs one sweep job
// per (depth variant or BIG baseline, workload) pair.
func RunFigure1213(ctx context.Context, maxInsts uint64, opts SweepOptions) (fig12, fig13 *report.Series, stats SweepStats, err error) {
	fig12 = &report.Series{
		Title:   "Figure 12: Executed instructions rate in IXU versus IXU stages",
		XLabel:  "stages",
		Columns: []string{"INT", "FP", "ALL"},
	}
	fig13 = &report.Series{
		Title:   "Figure 13: IPC relative to BIG versus IXU stages",
		XLabel:  "stages",
		Columns: []string{"INT", "FP", "ALL"},
	}
	const maxDepth = 6
	ws := Workloads()
	// Job layout: BIG baseline over all workloads, then each depth
	// variant over all workloads.
	jobs := make([]sweep.Job, 0, (1+maxDepth)*len(ws))
	for _, w := range ws {
		j := runJob(Big(), w, 0, maxInsts, nil)
		j.Label = "BIG " + w.Name
		jobs = append(jobs, j)
	}
	for depth := 1; depth <= maxDepth; depth++ {
		m := HalfFX()
		m.IXU.StageFUs = make([]int, depth)
		for i := range m.IXU.StageFUs {
			m.IXU.StageFUs[i] = 3
		}
		m.IXU.BypassMaxDist = 0
		for _, w := range ws {
			j := runJob(m, w, 0, maxInsts, nil)
			j.Label = fmt.Sprintf("depth %d %s", depth, w.Name)
			jobs = append(jobs, j)
		}
	}
	results, stats, err := sweep.Run(ctx, jobs, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	groups := []Group{GroupINT, GroupFP, GroupALL}
	bigIPC := map[Group]float64{}
	for _, g := range groups {
		_, v, err := groupGeomeans(ws, results[:len(ws)], g)
		if err != nil {
			return nil, nil, stats, err
		}
		bigIPC[g] = v
	}
	for depth := 1; depth <= maxDepth; depth++ {
		slice := results[depth*len(ws) : (depth+1)*len(ws)]
		var rates, ipcs []float64
		for _, g := range groups {
			rate, ipc, err := groupGeomeans(ws, slice, g)
			if err != nil {
				return nil, nil, stats, err
			}
			rates = append(rates, rate)
			ipcs = append(ipcs, ipc/bigIPC[g])
		}
		fig12.X = append(fig12.X, fmt.Sprint(depth))
		fig12.Y = append(fig12.Y, rates)
		fig13.X = append(fig13.X, fmt.Sprint(depth))
		fig13.Y = append(fig13.Y, ipcs)
	}
	return fig12, fig13, stats, nil
}

// groupGeomeans reduces one model's per-workload results (parallel to ws)
// over a benchmark group: the geometric means of the IXU execution rate
// (over workloads with a nonzero rate) and the IPC.
func groupGeomeans(ws []Workload, results []Result, g Group) (rate, ipc float64, err error) {
	logIPC, logRate := 0.0, 0.0
	n, nr := 0, 0
	for i, w := range ws {
		if !g.match(w) {
			continue
		}
		res := results[i]
		logIPC += ln(res.Counters.IPC())
		n++
		if r := res.Counters.IXURate(); r > 0 {
			logRate += ln(r)
			nr++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("fxa: empty group %v", g)
	}
	ipc = exp(logIPC / float64(n))
	if nr > 0 {
		rate = exp(logRate / float64(nr))
	}
	return rate, ipc, nil
}

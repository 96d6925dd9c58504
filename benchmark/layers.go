package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/stats"
	"fxa/internal/sweep"
)

// Traced calls into the layers. Each wrapper makes exactly the call the
// program makes and records one span around it; the span's extra fields
// carry what the layer reports about the call.

// traceBuild is workload.Params.Build then emu.New, as Params.NewTrace
// does them.
func traceBuild(t *tracer, parent, op int, w fxa.Workload) (*emu.Machine, error) {
	s := t.begin("workload.Params.Build", parent, op)
	prog, err := w.Build()
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("emu.New", parent, op)
	m := emu.New(prog)
	t.end(s)
	return m, nil
}

type skipReporter interface {
	SkipStats() (cycles, spans int64)
}

// traceDrive is engine.New then engine.Drive (engine.Run's two steps). The
// Drive span carries the calling thread's CPU time, the heap objects
// allocated, the committed instructions, and the simulated and skipped
// cycles. The caller holds runtime.LockOSThread.
func traceDrive(t *tracer, parent, op int, m fxa.Model, trace *emu.Stream, o engine.Options) (engine.Result, error) {
	s := t.begin("engine.New", parent, op)
	e, err := engine.New(m, trace)
	t.end(s)
	if err != nil {
		return engine.Result{}, err
	}
	s = t.begin("engine.Drive", parent, op)
	cpu0, a0 := threadCPU(), allocObjects()
	res, err := engine.Drive(context.Background(), e, o)
	cpu, allocs := threadCPU()-cpu0, allocObjects()-a0
	t.end(s)
	if s != nil {
		s.Kind = kindLayer(m.Kind)
		s.CPU, s.Allocs = int64(cpu), allocs
		s.Insts, s.Cycles = res.Counters.Committed, res.Counters.Cycles
		if sk, ok := e.(skipReporter); ok {
			s.Skipped, _ = sk.SkipStats()
		}
	}
	if err == nil {
		err = trace.Err()
	}
	return res, err
}

// traceCell replays fxa.EvaluationJob's work for one cold cell.
func traceCell(t *tracer, op int, c cell) (engine.Result, error) {
	root := t.begin("op", -1, op)
	defer t.end(root)
	m, err := traceBuild(t, root.id(), op, c.Workload)
	if err != nil {
		return engine.Result{}, err
	}
	res, err := traceDrive(t, root.id(), op, c.Model, emu.NewStream(m, c.Insts), engine.Options{})
	if err != nil {
		return engine.Result{}, fmt.Errorf("%s: %w", c.key(), err)
	}
	return res, nil
}

// probeLayers calls the layers a workload's replay does not reach, once
// per cell, on that workload's own cells: a standalone Stream.NextBatch
// pass and a Machine.Run fast-forward over the cell's instructions, a
// Machine.Clone of the result, a detailed run, and a sweep-cache
// round trip of its result. Probe spans have negative op ids and stay out
// of the reconciliation.
func probeLayers(t *tracer, dir string, cells []cell) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cdir, err := os.MkdirTemp(dir, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cdir)
	cache, err := sweep.OpenCache(filepath.Join(cdir, "c"))
	if err != nil {
		return err
	}
	buf := make([]emu.Record, 256)
	for i, c := range cells {
		op := -1 - i
		root := t.begin("op", -1, op)
		m, err := traceBuild(t, root.ID, op, c.Workload)
		if err != nil {
			return err
		}
		s := t.begin("Stream.NextBatch", root.ID, op)
		st := emu.NewStream(m, c.Insts)
		n := 0
		for k := st.NextBatch(buf); k > 0; k = st.NextBatch(buf) {
			n += k
		}
		t.end(s)
		s.Insts = uint64(n)

		if m, err = traceBuild(t, root.ID, op, c.Workload); err != nil {
			return err
		}
		s = t.begin("Machine.Run", root.ID, op)
		ff, err := m.Run(c.Insts)
		t.end(s)
		s.Insts = ff
		if err != nil {
			return err
		}
		s = t.begin("Machine.Clone", root.ID, op)
		m.Clone()
		t.end(s)

		if m, err = traceBuild(t, root.ID, op, c.Workload); err != nil {
			return err
		}
		res, err := traceDrive(t, root.ID, op, c.Model, emu.NewStream(m, c.Insts), engine.Options{})
		if err != nil {
			return err
		}
		s = t.begin("sweep.Key", root.ID, op)
		key, err := sweep.Key(fxa.EvaluationJob(c.Model, c.Workload, 0, c.Insts).Fingerprint)
		t.end(s)
		if err != nil {
			return err
		}
		s = t.begin("Cache.Get", root.ID, op)
		cache.Get(key)
		t.end(s)
		s = t.begin("Cache.Put", root.ID, op)
		err = cache.Put(key, res)
		t.end(s)
		if err != nil {
			return err
		}
		s = t.begin("Cache.Get", root.ID, op)
		_, hit := cache.Get(key)
		t.end(s)
		if !hit {
			return fmt.Errorf("probe: %s missing from the cache after Put", c.key())
		}
		t.end(root)
	}
	return nil
}

// probeCells picks one cell per registered model, preferring the
// workload's own cell for that model, so the probes cover every
// timing-core kind on the workload's programs and budgets.
func probeCells(cells []cell) []cell {
	var out []cell
	for i, m := range fxa.AllModels() {
		c := cells[i%len(cells)]
		for _, x := range cells {
			if x.Model.Name == m.Name {
				c = x
				break
			}
		}
		c.Model = m
		out = append(out, c)
	}
	return out
}

// simTotals aggregates modelled counts over results.
type simTotals struct {
	c         stats.Counters
	l1dMisses uint64
}

func (s *simTotals) add(r *engine.Result) {
	s.c.Add(&r.Counters)
	s.l1dMisses += r.L1D.Misses()
}

// layerMetrics computes the per-layer metrics from the spans: each layer
// number comes from the replay's spans when the replay called that layer,
// and from the probes otherwise.
func layerMetrics(o *outcome, spans []*span, sim *simTotals, tracedWall int64) {
	pick := func(match func(*span) bool) []*span {
		var rep, prb []*span
		for _, s := range spans {
			if match(s) {
				if s.probe() {
					prb = append(prb, s)
				} else {
					rep = append(rep, s)
				}
			}
		}
		if len(rep) > 0 {
			return rep
		}
		return prb
	}
	named := func(name string) func(*span) bool {
		return func(s *span) bool { return s.Name == name }
	}
	medianDur := func(name string, unit float64) float64 {
		var xs []float64
		for _, s := range pick(named(name)) {
			xs = append(xs, float64(s.dur())/unit)
		}
		return median(xs)
	}
	perInst := func(ss []*span, num func(*span) float64) float64 {
		var a, n float64
		for _, s := range ss {
			a += num(s)
			n += float64(s.Insts)
		}
		if n == 0 {
			return 0
		}
		return a / n
	}
	dur := func(s *span) float64 { return float64(s.dur()) }
	o.set("workload.build_ms", medianDur("workload.Params.Build", 1e6), "ms")
	o.set("emu.new_us", medianDur("emu.New", 1e3), "us")
	o.set("emu.trace_ns_per_inst", perInst(pick(named("Stream.NextBatch")), dur), "ns/inst")
	o.set("emu.ff_ns_per_inst", perInst(pick(named("Machine.Run")), dur), "ns/inst")
	o.set("emu.clone_us", medianDur("Machine.Clone", 1e3), "us")
	o.set("engine.new_us", medianDur("engine.New", 1e3), "us")
	for _, k := range []string{"core", "inorder", "dualissue"} {
		k := k
		ss := pick(func(s *span) bool { return s.Name == "engine.Drive" && s.Kind == k })
		o.set(k+".ns_per_inst", perInst(ss, func(s *span) float64 { return float64(s.CPU) }), "ns/inst")
		o.set(k+".allocs_per_kinst", 1000*perInst(ss, func(s *span) float64 { return float64(s.Allocs) }), "allocs/kinst")
	}
	var cycles, skipped, driveNS float64
	for _, s := range pick(named("engine.Drive")) {
		cycles += float64(s.Cycles)
		skipped += float64(s.Skipped)
		driveNS += float64(s.dur())
	}
	o.set("pipeline.skip_ratio", skipped/cycles, "ratio")
	o.set("engine.ns_per_active_cycle", driveNS/(cycles-skipped), "ns/cycle")

	ki := float64(sim.c.Committed) / 1000
	o.set("sim.cpi", float64(sim.c.Cycles)/float64(sim.c.Committed), "cycles/inst")
	o.set("sim.ixu_rate", sim.c.IXURate(), "ratio")
	o.set("sim.l1d_mpki", float64(sim.l1dMisses)/ki, "1/kinst")
	o.set("sim.branch_mpki", sim.c.MPKI(), "1/kinst")

	// Phase shares of the replay's wall time; probes never count.
	self := selfTimes(spans)
	share := func(names ...string) float64 {
		var sum int64
		for _, s := range spans {
			for _, n := range names {
				if s.Name == n && !s.probe() {
					sum += self[s.ID]
				}
			}
		}
		return float64(sum) / float64(tracedWall)
	}
	o.set("sampling.ff_share", share("Machine.Run"), "ratio")
	o.set("sampling.clone_share", share("Machine.Clone"), "ratio")
	o.set("sampling.detailed_share", share("engine.New", "engine.Drive"), "ratio")

	o.set("sweep.key_us", medianDur("sweep.Key", 1e3), "us")
	o.set("sweep.get_us", medianDur("Cache.Get", 1e3), "us")
	o.set("sweep.put_us", medianDur("Cache.Put", 1e3), "us")
}

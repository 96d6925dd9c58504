package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/sampling"
	"fxa/internal/sweep"
)

// traced collects what a traced run hands to finishTrace.
type traced struct {
	t            *tracer
	untraced     time.Duration // the timed phase of the untraced run
	wall         time.Duration // the traced replay of the same ops
	callers      int           // concurrent callers in the replay
	sim          simTotals     // modelled counts of the replay's results
	lagsUS       []float64     // generator gaps of the untraced run
	serveRecs    []serveRec    // the replay's jobs, or the serve probe's
	cache        shardTotals   // shard counters of the untraced run
	stageCounts  map[string]uint64
	probeCells   []cell
	serveProbeOf []cell // batch workloads: cells for the serve probe
}

// finishTrace probes the layers the replay did not reach, derives every
// per-layer metric, prints the reconciliation table and writes the span
// file.
func finishTrace(o *opts, out *outcome, tr *traced, ref *reference) error {
	if err := probeLayers(tr.t, o.out, tr.probeCells); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	if tr.serveProbeOf != nil {
		recs, err := probeServe(o, tr.t, tr.serveProbeOf)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		for i := range recs {
			out.attempted++
			if err := recs[i].check(ref); err != nil {
				out.fail(fmt.Errorf("serve probe: %w", err))
			}
		}
		tr.serveRecs = recs
	}
	out.printE2E()
	spans := tr.t.spans
	capacity := tr.wall * time.Duration(tr.callers)
	rows, layerSum := layerTable(spans, capacity)
	overhead := float64(tr.wall-tr.untraced) / float64(tr.untraced)
	layerMetrics(out, spans, &tr.sim, int64(capacity))
	serveLayerMetrics(out, tr.serveRecs)
	c := tr.cache
	hitRatio := 0.0
	if n := c.cache.Hits + c.cache.Misses; n > 0 {
		hitRatio = float64(c.cache.Hits) / float64(n)
	}
	out.set("sweep.hit_ratio", hitRatio, "ratio")
	out.set("sweep.collapsed", float64(c.cache.Collapsed), "count")
	out.set("serve.federated", float64(c.cache.Federated), "count")
	out.set("trace.overhead_share", overhead, "ratio")
	out.set("trace.layer_sum_share", layerSum, "ratio")
	out.set("bench.gen_lag_us_p50", median(tr.lagsUS), "us")
	out.set("bench.gen_lag_us_max", percentile(tr.lagsUS, 1000), "us")

	for _, l := range layerLines(rows, layerSum, overhead) {
		out.note("%s", l)
	}
	vals := map[string]float64{}
	for k, m := range out.metrics {
		vals[k] = m.Value
	}
	path, err := writeTraceFile(o.out, &traceFile{
		Env: o.env, Workload: o.workload, Seed: o.seed,
		UntracedWall: int64(tr.untraced), TracedWall: int64(tr.wall), Callers: tr.callers,
		Layers: rows, LayerSumShare: layerSum, OverheadShare: overhead,
		Metrics: vals, StageCounts: tr.stageCounts, Spans: spans,
	})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	out.note("spans: %d written to %s", len(spans), path)
	return nil
}

// ==== eval-matrix ====

// runEvalMatrix sweeps the full matrix, cold and serially, in the seed's
// order, in whole passes until the run length is reached.
func runEvalMatrix(o *opts) (*outcome, error) {
	ctx := context.Background()
	gcc, _ := fxa.WorkloadByName("gcc")
	warm := cell{fxa.HalfFX(), gcc, evalInsts}
	var cells []cell
	var ref *reference
	setup, err := repeatSetup(func() error {
		var err error
		cells = evalOrder(o.seed)
		if ref, err = loadReference(); err != nil {
			return err
		}
		runtime.GC()
		res, err := fxa.EvaluationJob(warm.Model, warm.Workload, 0, warm.Insts).Run(ctx)
		if err != nil {
			return err
		}
		return ref.checkCell(warm, digest(res))
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	out := &outcome{}
	var results [][]engine.Result
	var lat, lags []float64
	w := startWindow()
	for len(results) == 0 || time.Since(w.t0) < o.budget() {
		res, errs, l, g := evalPass(ctx, cells)
		var insts uint64
		for i := range res {
			out.attempted++
			if errs[i] != nil {
				out.fail(errs[i])
				continue
			}
			insts += res[i].Counters.Committed
		}
		w.mark(insts, len(cells))
		results = append(results, res)
		lat, lags = append(lat, l...), append(lags, g...)
	}
	w.stop()
	for _, res := range results {
		for i, c := range cells {
			if res[i].SchemaVersion != 0 { // failed jobs are counted above
				if err := ref.checkCell(c, digest(res[i])); err != nil {
					out.fail(err)
				}
			}
		}
	}
	out.endToEnd(setup, w, lat)
	if !o.trace {
		return out, nil
	}

	// Traced replay of the same passes, op by op through the layers.
	probes := probeCells(cells)
	tr := &traced{t: newTracer(), untraced: w.wall, callers: 1, lagsUS: lags,
		probeCells: probes, serveProbeOf: probes}
	runtime.LockOSThread()
	t0 := time.Now()
	replay := make([][]engine.Result, len(results))
	var rerrs []error
	for p := range results {
		for i, c := range cells {
			res, err := traceCell(tr.t, p*len(cells)+i, c)
			rerrs = append(rerrs, err)
			replay[p] = append(replay[p], res)
		}
	}
	tr.wall = time.Since(t0)
	runtime.UnlockOSThread()
	for p := range results {
		for i, c := range cells {
			out.attempted++
			if err := rerrs[p*len(cells)+i]; err != nil {
				out.fail(err)
				continue
			}
			if a, b := digest(results[p][i]), digest(replay[p][i]); a != b {
				out.fail(fmt.Errorf("%s: traced result %s differs from untraced %s", c.key(), b, a))
			}
			tr.sim.add(&replay[p][i])
		}
	}
	return out, finishTrace(o, out, tr, ref)
}

// evalPass runs one pass over the cells through sweep.Run on one worker,
// timing each job from inside the worker.
func evalPass(ctx context.Context, cells []cell) (res []engine.Result, errs []error, latMS, gapsUS []float64) {
	n := len(cells)
	starts, ends := make([]time.Time, n), make([]time.Time, n)
	errs = make([]error, n)
	jobs := make([]sweep.Job, n)
	for i, c := range cells {
		i, j := i, fxa.EvaluationJob(c.Model, c.Workload, 0, c.Insts)
		run := j.Run
		j.Run = func(ctx context.Context) (engine.Result, error) {
			starts[i] = time.Now()
			r, err := run(ctx)
			ends[i] = time.Now()
			errs[i] = err
			return r, err
		}
		jobs[i] = j
	}
	res, _, err := sweep.Run(ctx, jobs, sweep.Options{Workers: 1, Errors: sweep.CollectAll})
	for i := range cells {
		// A job that panicked never reached the wrapper's return; sweep.Run
		// recovered it and left its result zero.
		if errs[i] == nil && res[i].SchemaVersion == 0 {
			errs[i] = fmt.Errorf("%s: no result (%v)", cells[i].key(), err)
		}
		latMS = append(latMS, ms(ends[i].Sub(starts[i])))
		if i > 0 {
			gapsUS = append(gapsUS, float64(starts[i].Sub(ends[i-1]))/1e3)
		}
	}
	return res, errs, latMS, gapsUS
}

// ==== sampled-span ====

// runSampledSpan runs sampling.Run on HALF+FX, one worker, in whole
// passes over the four proxies until the run length is reached.
func runSampledSpan(o *opts) (*outcome, error) {
	ctx := context.Background()
	m := fxa.HalfFX()
	warm := sampledWarmOp()
	var ref *reference
	setup, err := repeatSetup(func() error {
		var err error
		if ref, err = loadReference(); err != nil {
			return err
		}
		runtime.GC()
		s, err := sampling.Run(ctx, m, warm.Workload, warm.Config)
		if err != nil {
			return err
		}
		return ref.checkSampled(warm, s)
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	out := &outcome{}
	var ops []sampledOp
	var sums []sampling.Summary
	var errs []error
	var lat, lags []float64
	w := startWindow()
	var last time.Time
	for p := 0; p == 0 || time.Since(w.t0) < o.budget(); p++ {
		pass := sampledPass(o.seed, p)
		var insts uint64
		for _, op := range pass {
			t0 := time.Now()
			if len(ops) > 0 {
				lags = append(lags, float64(t0.Sub(last))/1e3)
			}
			s, err := sampling.Run(ctx, m, op.Workload, op.Config)
			last = time.Now()
			lat = append(lat, ms(last.Sub(t0)))
			ops, sums, errs = append(ops, op), append(sums, s), append(errs, err)
			insts += s.FFInsts()
		}
		w.mark(insts, len(pass))
	}
	w.stop()
	for i, op := range ops {
		out.attempted++
		c := op.Config
		want := uint64(c.Intervals) * (c.SkipInsts + c.WarmupInsts + c.IntervalInsts)
		switch {
		case errs[i] != nil:
			out.fail(fmt.Errorf("%s: %w", op.key(), errs[i]))
		case sums[i].FFInsts() != want:
			out.fail(fmt.Errorf("%s: fast-forwarded %d instructions, schedule says %d", op.key(), sums[i].FFInsts(), want))
		default:
			if err := ref.checkSampled(op, sums[i]); err != nil {
				out.fail(err)
			}
		}
	}
	out.endToEnd(setup, w, lat)
	if !o.trace {
		return out, nil
	}

	var cells []cell
	for _, n := range sampledProxies {
		wl, _ := fxa.WorkloadByName(n)
		cells = append(cells, cell{m, wl, evalInsts})
	}
	probes := probeCells(cells)
	tr := &traced{t: newTracer(), untraced: w.wall, callers: 1, lagsUS: lags,
		probeCells: probes, serveProbeOf: probes, stageCounts: map[string]uint64{}}
	runtime.LockOSThread()
	t0 := time.Now()
	replay := make([][]engine.Result, len(ops))
	rerrs := make([]error, len(ops))
	for i, op := range ops {
		replay[i], rerrs[i] = sampledReplay(tr.t, i, m, op)
	}
	tr.wall = time.Since(t0)
	runtime.UnlockOSThread()
	for i, op := range ops {
		out.attempted++
		if rerrs[i] != nil {
			out.fail(fmt.Errorf("%s replay: %w", op.key(), rerrs[i]))
			continue
		}
		a, _ := json.Marshal(sums[i].PerInterval)
		b, _ := json.Marshal(replay[i])
		if string(a) != string(b) {
			out.fail(fmt.Errorf("%s: replay's windows differ from Summary.PerInterval", op.key()))
		}
		for k := range replay[i] {
			meas := replay[i][k].WarmExcluded()
			tr.sim.add(&meas)
			addStageCounts(tr.stageCounts, &replay[i][k])
		}
	}
	return out, finishTrace(o, out, tr, ref)
}

// ffChunk matches sampling.Run's fast-forward chunk, so the replay makes
// the same Machine.Run calls.
const ffChunk = 1 << 20

// sampledReplay repeats sampling.Run's schedule through the public emu
// and engine calls: build, then per window skip, Clone and advance
// through the window region, then the detailed windows in order on one
// worker. It returns the windows' results (Summary.PerInterval).
func sampledReplay(t *tracer, op int, m fxa.Model, so sampledOp) ([]engine.Result, error) {
	root := t.begin("op", -1, op)
	defer t.end(root)
	cfg := so.Config
	machine, err := traceBuild(t, root.ID, op, so.Workload)
	if err != nil {
		return nil, err
	}
	ff := func(insts uint64) error {
		for insts > 0 && !machine.Halt {
			chunk := min(insts, ffChunk)
			s := t.begin("Machine.Run", root.ID, op)
			n, err := machine.Run(chunk)
			t.end(s)
			s.Insts = n
			insts -= chunk
			if err != nil {
				return err
			}
		}
		return nil
	}
	type window struct {
		snap  *emu.Machine
		limit uint64
	}
	var wins []window
	for i := 0; i < cfg.Intervals; i++ {
		if err := ff(cfg.SkipInsts); err != nil {
			return nil, err
		}
		if machine.Halt {
			break
		}
		s := t.begin("Machine.Clone", root.ID, op)
		snap := machine.Clone()
		t.end(s)
		wins = append(wins, window{snap, machine.InstCount + cfg.WarmupInsts + cfg.IntervalInsts})
		if err := ff(cfg.WarmupInsts + cfg.IntervalInsts); err != nil {
			return nil, err
		}
	}
	var out []engine.Result
	for _, w := range wins {
		res, err := traceDrive(t, root.ID, op, m, emu.NewStream(w.snap, w.limit), engine.Options{WarmupInsts: cfg.WarmupInsts})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// addStageCounts accumulates the modelled counts of the detailed loop's
// stages (frontend, issue, memory, predictor), the baseline for timing
// those stages from inside the program later.
func addStageCounts(m map[string]uint64, r *engine.Result) {
	c := &r.Counters
	for k, v := range map[string]uint64{
		"cycles":                       c.Cycles,
		"committed":                    c.Committed,
		"frontend.fetched":             c.FetchedInsts,
		"frontend.wrong_path_fetched":  c.WrongPathFetched,
		"frontend.decode_ops":          c.DecodeOps,
		"frontend.l1i_misses":          r.L1I.Misses(),
		"issue.iq_dispatch":            c.IQDispatch,
		"issue.iq_issue":               c.IQIssue,
		"issue.ixu_exec":               c.IXUExec,
		"issue.oxu_exec":               c.OXUExec,
		"memory.l1d_misses":            r.L1D.Misses(),
		"memory.l2_misses":             r.L2.Misses(),
		"memory.dram_accesses":         r.DRAM,
		"predictor.branches":           c.Branches,
		"predictor.mispredicts":        c.BranchMispredicts,
		"predictor.mispredict_penalty": c.MispredPenaltyCycles,
	} {
		m[k] += v
	}
}

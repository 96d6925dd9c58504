package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"

	"fxa"
	"fxa/internal/sampling"
	"fxa/internal/serve"
)

// Input generation. The seed is the only source of randomness, and it
// only shapes inputs: which cells, in which order, with which skips.
// splitmix64 rather than math/rand keeps one seed's inputs identical
// across Go releases.

type rng struct{ s uint64 }

// newRNG derives an independent stream per purpose from one seed.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// cell is one detailed simulation: a model, a proxy and an instruction
// budget, run cold (no fast-forward, no warm-up).
type cell struct {
	Model    fxa.Model
	Workload fxa.Workload
	Insts    uint64
}

// key names the cell in the reference digests.
func (c cell) key() string {
	return c.Model.Name + "/" + c.Workload.Name + "/" + strconv.FormatUint(c.Insts, 10)
}

// matrix returns every registered model on every proxy at budget insts,
// in catalog order.
func matrix(insts uint64) []cell {
	var cs []cell
	for _, m := range fxa.AllModels() {
		for _, w := range fxa.Workloads() {
			cs = append(cs, cell{m, w, insts})
		}
	}
	return cs
}

// ---- eval-matrix ----

// evalInsts is eval-matrix's per-cell detailed budget: one pass over the
// 203 cells takes about four seconds (machine in NOTES.md).
const evalInsts = 40_000

// evalOrder is the seed's order of the full matrix.
func evalOrder(seed uint64) []cell {
	cs := matrix(evalInsts)
	shuffle(newRNG(seed, "eval-order"), cs)
	return cs
}

// ---- sampled-span ----

// The sampled-span schedule: 5 windows of 4000 measured instructions,
// each after 1000 instructions of detailed warm-up, separated by skips of
// about 2.5M instructions — one detailed instruction per 500 skipped.
const (
	sampledWindows = 5
	sampledWindow  = 4000
	sampledWarm    = 1000
	sampledSkip    = 2_500_000
	sampledJitters = 8 // skip = sampledSkip * (100+k)/100, k < sampledJitters
)

// sampledProxies stream (libquantum), chase pointers over a large
// footprint (mcf), branch (gcc) and compute in FP (namd).
var sampledProxies = []string{"libquantum", "mcf", "gcc", "namd"}

type sampledOp struct {
	Workload fxa.Workload
	Config   sampling.Config
}

func (o sampledOp) key() string {
	return fmt.Sprintf("HALF+FX/%s/skip=%d", o.Workload.Name, o.Config.SkipInsts)
}

func newSampledOp(name string, jitter int) sampledOp {
	w, err := fxa.WorkloadByName(name)
	if err != nil {
		panic(err) // sampledProxies names catalog entries
	}
	return sampledOp{w, sampling.Config{
		Intervals:     sampledWindows,
		IntervalInsts: sampledWindow,
		WarmupInsts:   sampledWarm,
		SkipInsts:     sampledSkip * uint64(100+jitter) / 100,
		Workers:       1,
	}}
}

// sampledWarmSkip is the skip of sampled-span's untimed warm-up op.
const sampledWarmSkip = 20_000

// sampledWarmOp is sampled-span's warm-up op: gcc on the workload's
// schedule but with short skips, so it passes through every layer a timed
// op does in a few milliseconds and setup_s stays a set-up time rather
// than one more sampled run.
func sampledWarmOp() sampledOp {
	o := newSampledOp("gcc", 0)
	o.Config.SkipInsts = sampledWarmSkip
	return o
}

// sampledPass is pass p of the op list: every proxy once, in the seed's
// order, each with a seed-chosen skip.
func sampledPass(seed uint64, p int) []sampledOp {
	r := newRNG(seed, "sampled-pass-"+strconv.Itoa(p))
	names := append([]string(nil), sampledProxies...)
	shuffle(r, names)
	ops := make([]sampledOp, len(names))
	for i, n := range names {
		ops[i] = newSampledOp(n, r.intn(sampledJitters))
	}
	return ops
}

// ---- serve-routed ----

// Fresh serve-routed jobs are full-matrix cells at one of these budgets
// (about 75 ms of simulation each), so the pool holds 2436 distinct cache
// keys, 1218 per client: three to six times what a client used in a
// 20-second run on the machine in NOTES.md, whose speed drifts. A client
// that runs out counts as a failed op. Repeats re-submit cells the same
// client already completed.
var serveBudgets = []uint64{
	200_000, 201_000, 202_000, 203_000, 204_000, 205_000,
	206_000, 207_000, 208_000, 209_000, 210_000, 211_000,
}

// serveStreamEvery is the interval length of streaming jobs (four
// interval events per fresh cell).
const serveStreamEvery = 50_000

// shardNames are the shards' ring names. The fabric maps them to its
// loopback listeners, so placement depends on the seed and not on which
// ports the kernel hands out.
var shardNames = []string{"http://shard-0", "http://shard-1"}

// serveClients is the number of closed-loop clients, one tenant each.
const serveClients = 2

type serveOp struct {
	Cell   cell
	Fresh  bool // a cell no shard has run yet; otherwise a cache hit
	Stream bool // asks for interval events
}

func (o serveOp) spec(tenant string) serve.JobSpec {
	s := serve.JobSpec{Tenant: tenant, Model: o.Cell.Model.Name, Workload: o.Cell.Workload.Name, MaxInsts: o.Cell.Insts}
	if o.Stream {
		s.IntervalInsts = serveStreamEvery
	}
	return s
}

// servePools gives each client its own fresh cells: the whole matrix
// once per budget, the budgets dealt to the clients in turn. Within a
// budget the k-th cell pairs model k mod 7 with proxy k mod 29 of
// seed-shuffled lists. As 7 and 29 are coprime, a budget visits every pair
// once (TestServePoolsDisjoint fails if the catalogs stop being coprime),
// and any stretch of it holds the same mix of models and proxies whatever
// the seed: the in-order cores allocate 50 times more per instruction
// than the out-of-order one, and the proxies run at different speeds.
//
// Both clients' jobs land on both shards and queue behind each other. No
// job's outcome depends on timing all the same: the pools share no cell,
// so a fresh job can neither hit nor collapse, and a repeat is a cell its
// own client saw complete, which the ring sends back to the shard that
// cached it.
func servePools(seed uint64) [][]cell {
	models, procs := fxa.AllModels(), fxa.Workloads()
	pools := make([][]cell, serveClients)
	for i, b := range serveBudgets {
		r := newRNG(seed, "serve-pool-"+strconv.Itoa(i))
		shuffle(r, models)
		shuffle(r, procs)
		for k := 0; k < len(models)*len(procs); k++ {
			c := cell{models[k%len(models)], procs[k%len(procs)], b}
			pools[i%serveClients] = append(pools[i%serveClients], c)
		}
	}
	return pools
}

// errPoolExhausted ends a client whose run outlasted its fresh cells; the
// run counts it as one failed op.
var errPoolExhausted = errors.New("serve-routed: a client ran out of fresh cells before the run length")

// clientGen is one client's op sequence: fresh and repeat jobs alternate,
// every other fresh job streams intervals, and a repeat re-submits a
// seed-chosen cell this client completed earlier.
type clientGen struct {
	pool []cell
	r    *rng
	n    int
	done []cell
}

func newClientGen(seed uint64, client int, pool []cell) *clientGen {
	return &clientGen{pool: pool, r: newRNG(seed, "serve-client-"+strconv.Itoa(client))}
}

func (g *clientGen) next() (serveOp, error) {
	defer func() { g.n++ }()
	if g.n%2 == 1 {
		return serveOp{Cell: g.done[g.r.intn(len(g.done))]}, nil
	}
	if len(g.done) == len(g.pool) {
		return serveOp{}, fmt.Errorf("%w (%d cells)", errPoolExhausted, len(g.pool))
	}
	c := g.pool[len(g.done)]
	g.done = append(g.done, c)
	return serveOp{Cell: c, Fresh: true, Stream: len(g.done)%2 == 0}, nil
}

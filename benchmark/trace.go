package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fxa/internal/config"
	"fxa/internal/perfgate"
)

// span is one timed call from the benchmark's own code into a layer. Ops
// get a root span named "op"; the calls an op makes are its children.
// Layer probes (probeLayers, probeServe) record spans with negative op
// ids.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`

	// Optional measurements attached by the caller.
	Kind    string `json:"kind,omitempty"`    // timing-core layer (engine.Drive)
	CPU     int64  `json:"cpu_ns,omitempty"`  // calling thread's CPU time (engine.Drive)
	Allocs  uint64 `json:"allocs,omitempty"`  // heap objects allocated (engine.Drive)
	Insts   uint64 `json:"insts,omitempty"`   // instructions the call covered
	Cycles  uint64 `json:"cycles,omitempty"`  // simulated cycles (engine.Drive)
	Skipped int64  `json:"skipped,omitempty"` // of Cycles, skipped as idle
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) probe() bool { return s.Op < 0 }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so one code path serves traced and untraced
// runs. Each span is written only by the goroutine that began it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; parent is the enclosing span's id or -1.
func (t *tracer) begin(name string, parent, op int) *span {
	if t == nil {
		return nil
	}
	s := &span{Parent: parent, Op: op, Name: name}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *span) {
	if t != nil {
		s.End = t.now()
	}
}

// id returns s's id, or -1 for the nil span of an untraced run.
func (s *span) id() int {
	if s == nil {
		return -1
	}
	return s.ID
}

// kindLayer names the package implementing a core kind.
func kindLayer(k config.CoreKind) string {
	switch k {
	case config.InOrder:
		return "inorder"
	case config.DualIssueInOrder:
		return "dualissue"
	}
	return "core"
}

// layerOf maps a span to the repository module it times.
func layerOf(s *span) string {
	switch s.Name {
	case "op":
		return "bench"
	case "workload.Params.Build":
		return "workload"
	case "emu.New", "Machine.Run", "Machine.Clone", "Stream.NextBatch":
		return "emu"
	case "engine.New":
		return "engine"
	case "engine.Drive":
		return s.Kind
	case "sweep.Key", "Cache.Get", "Cache.Put":
		return "sweep"
	case "Client.Submit", "Client.Stream":
		return "serve"
	}
	return "other"
}

// selfTimes returns, for each span (indexed by id), its duration minus
// the part of it covered by the union of its children's intervals.
func selfTimes(spans []*span) []int64 {
	kids := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for _, s := range spans {
		var ivs []iv
		for _, c := range kids[s.ID] {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64
		open := false
		for _, x := range ivs {
			switch {
			case !open:
				curA, curB, open = x.a, x.b, true
			case x.a <= curB:
				curB = max(curB, x.b)
			default:
				covered += curB - curA
				curA, curB = x.a, x.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the reconciliation table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of the traced wall time times callers
}

// layerTable sums the self time of the replay's spans (probes excluded)
// per layer. capacity is the traced wall time times the number of
// concurrent callers; layerSum is the non-bench layers' total over it.
func layerTable(spans []*span, capacity time.Duration) (rows []layerRow, layerSum float64) {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	for _, s := range spans {
		if s.probe() {
			continue
		}
		l := layerOf(s)
		r := by[l]
		if r == nil {
			r = &layerRow{Layer: l}
			by[l] = r
		}
		r.Spans++
		r.SelfMS += float64(self[s.ID]) / 1e6
	}
	for _, r := range by {
		r.Share = r.SelfMS * 1e6 / float64(capacity)
		if r.Layer != "bench" {
			layerSum += r.Share
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows, layerSum
}

// layerLines renders the reconciliation table.
func layerLines(rows []layerRow, layerSum, overhead float64) []string {
	lines := []string{
		"layer self time (traced replay; bench = harness between layer calls)",
		fmt.Sprintf("  %-10s %7s %11s %7s", "layer", "spans", "self_ms", "share"),
	}
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("  %-10s %7d %11.1f %6.1f%%", r.Layer, r.Spans, r.SelfMS, 100*r.Share))
	}
	return append(lines, fmt.Sprintf("  trace.layer_sum_share %.4f   trace.overhead_share %+.4f", layerSum, overhead))
}

// traceFile is the span file a traced run writes.
type traceFile struct {
	Env           perfgate.Fingerprint `json:"env"`
	Workload      string               `json:"workload"`
	Seed          uint64               `json:"seed"`
	UntracedWall  int64                `json:"untraced_wall_ns"`
	TracedWall    int64                `json:"traced_wall_ns"`
	Callers       int                  `json:"callers"`
	Layers        []layerRow           `json:"layers"`
	LayerSumShare float64              `json:"layer_sum_share"`
	OverheadShare float64              `json:"overhead_share"`
	Metrics       map[string]float64   `json:"metrics"`
	StageCounts   map[string]uint64    `json:"stage_counts,omitempty"`
	Spans         []*span              `json:"spans"`
}

func writeTraceFile(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", tf.Workload, tf.Seed))
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

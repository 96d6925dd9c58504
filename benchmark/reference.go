package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"fxa"
	"fxa/internal/sampling"
	"fxa/internal/sweep"
)

// reference.json holds the digest of every result the workloads can
// produce: each cell a workload simulates (eval-matrix's matrix and
// serve-routed's fresh pool) and each sampled op. A wrong answer turns
// into a failed op. Regenerate it only when a change is meant to alter
// simulated results:
//
//	cd benchmark && go run . -write-reference reference.json
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	// Cells maps cell.key() to the digest of the cell's engine.Result as
	// a local sweep.RunOne of fxa.EvaluationJob produces it.
	Cells map[string]string `json:"cells"`
	// Sampled maps sampledOp.key() to the digest of its sampling.Summary
	// with the run-time statistics (Summary.Sweep) zeroed.
	Sampled map[string]string `json:"sampled"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return &r, nil
}

// digest is the first 16 hex digits of the SHA-256 of v's JSON encoding,
// the canonical form the result cache and the wire already use.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// summaryDigest hashes the deterministic part of a sampled run.
func summaryDigest(s sampling.Summary) string {
	s.Sweep = sweep.Stats{}
	return digest(s)
}

// checkCell compares a result's digest with the reference.
func (r *reference) checkCell(c cell, got string) error {
	want, ok := r.Cells[c.key()]
	if !ok {
		return fmt.Errorf("%s: no reference digest", c.key())
	}
	if got != want {
		return fmt.Errorf("%s: result digest %s, reference %s", c.key(), got, want)
	}
	return nil
}

func (r *reference) checkSampled(o sampledOp, s sampling.Summary) error {
	want, ok := r.Sampled[o.key()]
	if !ok {
		return fmt.Errorf("%s: no reference digest", o.key())
	}
	if got := summaryDigest(s); got != want {
		return fmt.Errorf("%s: summary digest %s, reference %s", o.key(), got, want)
	}
	return nil
}

// sampledOps lists every op sampled-span can run, its warm-up op first.
func sampledOps() []sampledOp {
	ops := []sampledOp{sampledWarmOp()}
	for _, n := range sampledProxies {
		for k := 0; k < sampledJitters; k++ {
			ops = append(ops, newSampledOp(n, k))
		}
	}
	return ops
}

// writeReference recomputes every digest and writes the file: the cells
// through sweep.Run on two workers, the sampled ops one after another.
func writeReference(path string) error {
	ctx := context.Background()
	cells := matrix(evalInsts)
	for _, b := range serveBudgets {
		cells = append(cells, matrix(b)...)
	}
	jobs := make([]sweep.Job, len(cells))
	for i, c := range cells {
		jobs[i] = fxa.EvaluationJob(c.Model, c.Workload, 0, c.Insts)
	}
	res, _, err := sweep.Run(ctx, jobs, sweep.Options{Workers: 2, Errors: sweep.CollectAll})
	if err != nil {
		return err
	}
	ref := reference{Cells: map[string]string{}, Sampled: map[string]string{}}
	for i, c := range cells {
		ref.Cells[c.key()] = digest(res[i])
	}
	for _, o := range sampledOps() {
		s, err := sampling.Run(ctx, fxa.HalfFX(), o.Workload, o.Config)
		if err != nil {
			return fmt.Errorf("%s: %w", o.key(), err)
		}
		ref.Sampled[o.key()] = summaryDigest(s)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

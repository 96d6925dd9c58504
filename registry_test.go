package fxa

// Registry-driven model enumeration for the cross-cutting suites. The
// golden, interval-invariant, differential and skip-differential tests
// iterate allKindModels instead of hard-coding a model list, so a newly
// registered core kind (engine.Register from a package init) is covered
// by every harness the moment fxa.go blank-imports it — satellite 2 of
// the stage-library PR.

import (
	"context"
	"strings"
	"testing"

	"fxa/internal/config"
	"fxa/internal/engine"
)

// allKindModels asserts the kind registry and the model catalog agree —
// every defined kind is registered, every registered kind has at least
// one named model, every model's kind is constructible — and returns the
// full model set for suite iteration.
func allKindModels(t testing.TB) []Model {
	t.Helper()
	registered := map[config.CoreKind]bool{}
	for _, k := range engine.Kinds() {
		registered[k] = true
	}
	for _, k := range config.Kinds() {
		if !registered[k] {
			t.Fatalf("core kind %v defined in config but not registered with the engine layer", k)
		}
	}
	models := AllModels()
	byKind := map[config.CoreKind]int{}
	for _, m := range models {
		if !engine.Registered(m.Kind) {
			t.Fatalf("model %s has unregistered kind %v", m.Name, m.Kind)
		}
		byKind[m.Kind]++
	}
	for _, k := range engine.Kinds() {
		if byKind[k] == 0 {
			t.Fatalf("registered core kind %v has no named model in AllModels", k)
		}
	}
	return models
}

// TestRegistryCoversAllKinds pins the registry/catalog agreement on its
// own, so a violation fails loudly even when the big suites are filtered
// out.
func TestRegistryCoversAllKinds(t *testing.T) {
	models := allKindModels(t)
	if len(models) < len(Models()) {
		t.Fatalf("AllModels returned %d models, fewer than the paper's %d", len(models), len(Models()))
	}
}

// TestUnknownKindRejected: a model with an undefined CoreKind must fail
// validation, and a run of it must fail construction with the engine
// registry's error naming the known kinds.
func TestUnknownKindRejected(t *testing.T) {
	m := Little()
	m.Kind = config.CoreKind(97)
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown core kind")
	}
	w, err := WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Spec{Model: m, Workload: w, MaxInsts: 1_000})
	if err == nil || !strings.Contains(err.Error(), "no engine registered") {
		t.Fatalf("err = %v, want the registry's no-engine-registered error", err)
	}
}

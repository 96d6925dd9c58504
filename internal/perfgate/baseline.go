package perfgate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion is the current baseline-file schema. Bump it whenever
// the semantics of the stored samples change (different warm-up policy,
// different benchmark normalization, renamed metrics): the gate refuses
// to compare against a baseline from another schema generation instead
// of silently producing a meaningless verdict.
const SchemaVersion = 1

// ErrSchemaVersion marks a baseline whose perfgate_schema does not match
// SchemaVersion; a file without the field has schema 0.
var ErrSchemaVersion = errors.New("baseline schema version mismatch")

// Suite is one measured benchmark suite: the sample vectors of every
// benchmark metric plus the environment they were measured in. It is
// both the in-memory result of a Runner.Run and the on-disk baseline
// format.
type Suite struct {
	Schema      int          `json:"perfgate_schema"`
	SuiteName   string       `json:"suite"`
	Description string       `json:"description,omitempty"`
	Env         Fingerprint  `json:"env"`
	Benchmarks  Measurements `json:"benchmarks"`
}

// LoadBaseline reads and validates a baseline file. It distinguishes
// two failure shapes so callers can give actionable guidance:
// ErrSchemaVersion (another or no schema generation — regenerate with
// -update-baseline) and plain errors (missing file, syntax).
func LoadBaseline(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Probe the schema field before committing to the Suite shape.
	var probe struct {
		Schema int `json:"perfgate_schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: %w (file has schema %d, this binary speaks %d; regenerate with `fxabench -perfgate -update-baseline`)", path, ErrSchemaVersion, probe.Schema, SchemaVersion)
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: baseline has no benchmarks", path)
	}
	return &s, nil
}

// Save writes the suite as an indented, key-sorted JSON baseline. The
// write is atomic (temp file + rename) so an interrupted -update-
// baseline never leaves a truncated baseline for the next gate run to
// choke on.
func (s *Suite) Save(path string) error {
	if s.Schema == 0 {
		s.Schema = SchemaVersion
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// BenchNames returns the suite's benchmark names, sorted, for
// deterministic report ordering.
func (s *Suite) BenchNames() []string {
	names := make([]string, 0, len(s.Benchmarks))
	for name := range s.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UnitsOf returns the units recorded for one benchmark, sorted with the
// primary timing metrics first (ns/inst, then ns/op) and the rest
// alphabetical — the order the regression table prints them in.
func (s *Suite) UnitsOf(bench string) []string {
	byUnit := s.Benchmarks[bench]
	units := make([]string, 0, len(byUnit))
	for u := range byUnit {
		units = append(units, u)
	}
	rank := func(u string) int {
		switch u {
		case "ns/inst":
			return 0
		case "ns/op":
			return 1
		default:
			return 2
		}
	}
	sort.Slice(units, func(i, j int) bool {
		ri, rj := rank(units[i]), rank(units[j])
		if ri != rj {
			return ri < rj
		}
		return units[i] < units[j]
	})
	return units
}

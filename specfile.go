package es2

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Spec files are plain JSON encodings of ScenarioSpec / ClusterSpec
// with Go field names as keys. Duration fields are nanosecond integers
// (time.Duration's JSON form); Workload.Kind accepts either the
// symbolic name ("ping", "memcached", ...) or the numeric enum value.
// Unknown keys are rejected so a typo fails loudly instead of
// silently running the default scenario.

// MarshalJSON encodes the workload kind as its symbolic name.
func (k WorkloadKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a symbolic workload name or the numeric enum.
func (k *WorkloadKind) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		for i := IdleBurn; i <= Httperf; i++ {
			if i.String() == s {
				*k = i
				return nil
			}
		}
		return fmt.Errorf("unknown workload kind %q", s)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = WorkloadKind(n)
	return nil
}

// decodeSpec decodes exactly one JSON document into dst, rejecting
// unknown fields and trailing garbage.
func decodeSpec(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after spec document")
	}
	return nil
}

// parseSpec decodes one JSON spec document from r and validates it;
// what names the spec kind in decode errors.
func parseSpec[T any](r io.Reader, what string, validate func(T) error) (T, error) {
	var s T
	if err := decodeSpec(r, &s); err != nil {
		return s, fmt.Errorf("es2: parse %s: %w", what, err)
	}
	return s, validate(s)
}

// fieldErr wraps a standalone validation error as a SpecError on field.
func fieldErr(field string, err error) error {
	if err != nil {
		return &SpecError{Field: field, Reason: err.Error()}
	}
	return nil
}

// ParseScenarioSpec reads one JSON ScenarioSpec from r and validates
// it (defaults applied first, exactly as Run would).
func ParseScenarioSpec(r io.Reader) (ScenarioSpec, error) {
	return parseSpec(r, "spec", ScenarioSpec.Validate)
}

// ParseClusterSpec reads one JSON ClusterSpec from r and validates it.
func ParseClusterSpec(r io.Reader) (ClusterSpec, error) {
	return parseSpec(r, "cluster spec", ClusterSpec.Validate)
}

// ParseChaosSpec reads one JSON ChaosSpec from r and validates it.
// Validation here is standalone — window-fit against a particular
// cluster duration happens when the spec is attached to a ClusterSpec.
func ParseChaosSpec(r io.Reader) (ChaosSpec, error) {
	return parseSpec(r, "chaos spec", func(s ChaosSpec) error { return fieldErr("Chaos", s.Validate()) })
}

// ParseSLOSpec reads one JSON SLOSpec from r and validates it
// standalone — workload-compatibility of the objectives is checked
// when the spec is attached to a ScenarioSpec or ClusterSpec.
func ParseSLOSpec(r io.Reader) (SLOSpec, error) {
	s, err := parseSpec(r, "slo spec", func(s SLOSpec) error { return fieldErr("SLO", s.Validate()) })
	if err != nil {
		return s, err
	}
	return s.WithDefaults(), nil
}

// ParseLoadSpec reads one JSON LoadSpec from r and validates it
// standalone — workload compatibility (memcached-only and fan-out
// restrictions on a single host, flow budgets on a cluster) is checked
// when the spec is attached to a ScenarioSpec or ClusterSpec.
func ParseLoadSpec(r io.Reader) (LoadSpec, error) {
	s, err := parseSpec(r, "load spec", func(s LoadSpec) error { return fieldErr("Load", s.Validate()) })
	if err != nil {
		return s, err
	}
	return s.WithDefaults(), nil
}

// loadSpecFile opens path and parses it with parse.
func loadSpecFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// LoadLoadSpec reads and validates a JSON LoadSpec file.
func LoadLoadSpec(path string) (LoadSpec, error) { return loadSpecFile(path, ParseLoadSpec) }

// LoadSLOSpec reads and validates a JSON SLOSpec file.
func LoadSLOSpec(path string) (SLOSpec, error) { return loadSpecFile(path, ParseSLOSpec) }

// LoadChaosSpec reads and validates a JSON ChaosSpec file.
func LoadChaosSpec(path string) (ChaosSpec, error) { return loadSpecFile(path, ParseChaosSpec) }

// LoadScenarioSpec reads and validates a JSON ScenarioSpec file.
func LoadScenarioSpec(path string) (ScenarioSpec, error) {
	return loadSpecFile(path, ParseScenarioSpec)
}

// LoadClusterSpec reads and validates a JSON ClusterSpec file.
func LoadClusterSpec(path string) (ClusterSpec, error) {
	return loadSpecFile(path, ParseClusterSpec)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed region of the benchmark's own calls into the
// simulator. Spans of one scenario run share its Scenario id.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Scenario int    `json:"scenario,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs stay untraced.
type tracer struct {
	t0        time.Time
	spans     []span
	scenarios int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 is "none").
func (t *tracer) begin(name string, parent, scenario int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Scenario: scenario, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// newScenarioID allocates the id shared by one scenario run's spans.
func (t *tracer) newScenarioID() int {
	if t == nil {
		return 0
	}
	t.scenarios++
	return t.scenarios
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

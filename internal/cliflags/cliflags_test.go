package cliflags

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"es2/experiments"
)

func TestResolve(t *testing.T) {
	calls := 0
	load := func(path string) (int, error) {
		calls++
		if path == "bad.json" {
			return 0, errors.New("bad spec")
		}
		return 42, nil
	}
	for _, tc := range []struct {
		value     string
		want      int
		wantErr   bool
		wantCalls int
	}{
		{"", 0, false, 0},           // unset: the zero value, nothing read
		{"rack1", 7, false, 0},      // a preset name: the built-in
		{"default", 7, false, 0},    // its alias
		{"spec.json", 42, false, 1}, // anything else is a file
		{"bad.json", 0, true, 1},    // whose error comes back as is
		{"Rack1", 42, false, 1},     // names match exactly
	} {
		calls = 0
		got, err := Resolve(tc.value, load, 7, "rack1", "default")
		if got != tc.want || (err != nil) != tc.wantErr || calls != tc.wantCalls {
			t.Errorf("Resolve(%q) = %d, %v with %d loads; want %d, error %v, %d loads",
				tc.value, got, err, calls, tc.want, tc.wantErr, tc.wantCalls)
		}
	}
	// Without preset names every non-empty value is a file.
	calls = 0
	if got, err := Resolve("default", load, 7); got != 42 || err != nil || calls != 1 {
		t.Errorf("Resolve without presets = %d, %v with %d loads; want 42, nil, 1", got, err, calls)
	}
}

// ResolveSLO gives "default" the built-in objective preset, leaves an
// unset flag off and reads anything else as a file.
func TestResolveSLO(t *testing.T) {
	got, err := ResolveSLO("default")
	if err != nil || !reflect.DeepEqual(got, experiments.DefaultSLO()) {
		t.Errorf("ResolveSLO(default) = %+v, %v; want the DefaultSLO preset", got, err)
	}
	if got, err := ResolveSLO(""); err != nil || got.Enabled() {
		t.Errorf("ResolveSLO(\"\") = %+v, %v; want no objectives", got, err)
	}
	if _, err := ResolveSLO(filepath.Join(t.TempDir(), "default")); err == nil {
		t.Error("ResolveSLO of a missing file succeeded")
	}
}

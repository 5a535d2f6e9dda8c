package cliflags

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"es2"
	"es2/internal/sim"
	"es2/internal/telemetry"
)

func TestSanitize(t *testing.T) {
	// Clean names pass through untouched (stable artifact names for the
	// common case).
	for _, s := range []string{"table1", "fig4a", "mq-recv.1q", "Run0"} {
		if got := Sanitize(s); got != s {
			t.Errorf("Sanitize(%q) = %q, want unchanged", s, got)
		}
	}
	// Remapped names stay filesystem-safe.
	for _, s := range []string{"sriov/tcp/Baseline", "policy/§", "a b"} {
		got := Sanitize(s)
		if strings.ContainsAny(got, "/ §:") {
			t.Errorf("Sanitize(%q) = %q still contains unsafe runes", s, got)
		}
	}
	// Names that collide after remapping must not collide after
	// sanitizing, or scenarios overwrite each other's artifacts.
	collisions := [][2]string{
		{"a/b", "a:b"},
		{"policy/v", "policy:v"},
		{"x y", "x/y"},
	}
	for _, c := range collisions {
		if Sanitize(c[0]) == Sanitize(c[1]) {
			t.Errorf("Sanitize(%q) == Sanitize(%q) == %q; artifact overwrite",
				c[0], c[1], Sanitize(c[0]))
		}
	}
}

// TestWriteExports runs in a scratch working directory, so an export
// written for a directory that was not given (an empty path joins to
// the working directory) shows up as a stray file.
func TestWriteExports(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	tel := telemetry.New(sim.NewEngine(1), sim.Millisecond)
	crit := &es2.CriticalPath{Requests: 7}
	files := func(dir string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	for _, tc := range []struct {
		name            string
		tel, crit       bool
		telOut, critOut []string
	}{
		{"both", true, true, []string{"base.csv", "base.prom"}, []string{"base.json"}},
		{"telemetry only", true, false, []string{"base.csv", "base.prom"}, nil},
		{"critical path only", false, true, nil, []string{"base.json"}},
		{"neither", false, false, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.Chdir(root); err != nil {
				t.Fatal(err)
			}
			telDir, critDir := filepath.Join(root, "tel"), filepath.Join(root, "crit")
			given := func(on bool, dir string) string {
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if on {
					return dir
				}
				return ""
			}
			if err := WriteExports("base", tel, crit, given(tc.tel, telDir), given(tc.crit, critDir)); err != nil {
				t.Fatal(err)
			}
			if got := files(telDir); !slices.Equal(got, tc.telOut) {
				t.Errorf("telemetry dir holds %v, want %v", got, tc.telOut)
			}
			if got := files(critDir); !slices.Equal(got, tc.critOut) {
				t.Errorf("critical-path dir holds %v, want %v", got, tc.critOut)
			}
			if got := files(root); !slices.Equal(got, []string{"crit", "tel"}) {
				t.Errorf("working directory holds %v, want only the two export dirs", got)
			}
			if !tc.crit {
				return
			}
			b, err := os.ReadFile(filepath.Join(critDir, "base.json"))
			if err != nil {
				t.Fatal(err)
			}
			var back es2.CriticalPath
			if err := json.Unmarshal(b, &back); err != nil || back.Requests != crit.Requests {
				t.Errorf("base.json reads back %d requests (err %v), want %d", back.Requests, err, crit.Requests)
			}
		})
	}
}

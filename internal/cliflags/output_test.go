package cliflags

import (
	"strings"
	"testing"
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

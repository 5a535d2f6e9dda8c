package main

import (
	"strings"
	"testing"
)

// A soak refuses each export it would not write, by its flag name, and
// accepts a run that asks for none.
func TestSoakExports(t *testing.T) {
	if err := soakExports("", "", "", ""); err != nil {
		t.Fatalf("no exports: %v", err)
	}
	for i, flag := range []string{"-telemetry-dir", "-critpath-dir", "-metrics", "-slo-log"} {
		v := make([]string, 4)
		v[i] = "out"
		err := soakExports(v[0], v[1], v[2], v[3])
		if err == nil || !strings.Contains(err.Error(), flag+" ") {
			t.Errorf("%s set: error %v, want one naming %s", flag, err, flag)
		}
	}
}

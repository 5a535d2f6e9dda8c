package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smallConfig runs every stage once; the tests pair it with the
// scaled-down workloads.
func smallConfig(t *testing.T) config {
	return config{seed: 2017, seconds: 0, out: t.TempDir(),
		setupBuilds: 1, microBatches: 1, obsPairs: 1, obsScale: 16}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func units(res result) map[string]string {
	out := map[string]string{}
	for name, m := range res.Metrics {
		out[name] = m.Unit
	}
	return out
}

func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	e2e, _ := declared(t)
	cfg := smallConfig(t)
	for _, name := range workloadNames {
		w, err := newWorkload(name, cfg.seed, true)
		if err != nil {
			t.Fatal(err)
		}
		res := measureE2E(w, cfg, io.Discard)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
		if got := units(res); !reflect.DeepEqual(got, e2e) {
			t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", name, got, e2e)
		}
	}
}

func TestTracedRunEmitsTheDeclaredMetrics(t *testing.T) {
	_, layer := declared(t)
	cfg := smallConfig(t)
	w, err := newWorkload("rack-closed", cfg.seed, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measureLayers(w, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if got := units(res); !reflect.DeepEqual(got, layer) {
		t.Errorf("metrics %v, BENCHMARK.json declares %v", got, layer)
	}
	for _, name := range []string{"sim.events", "fabric.forwarded", "vmm.exit_entry_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.out, "trace-rack-closed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, want := range []string{"workload:rack-closed", "warm-up", "pass", "es2.run", "encode", "setup"} {
		if !names[want] {
			t.Errorf("no %q span", want)
		}
	}
}

func TestDigestRepeatsAndFollowsTheSeed(t *testing.T) {
	digest := func(seed uint64) string {
		w, err := newWorkload("up-stream", seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return passDigest(runPass(w.scenarios, nil, "pass", 0))
	}
	a, b := digest(2017), digest(2017)
	if a != b {
		t.Fatalf("same seed, different digests: %s vs %s", a, b)
	}
	if c := digest(2018); c == a {
		t.Fatalf("seeds 2017 and 2018 gave the same digest %s", a)
	}
}

func TestInjectedFailureIsCounted(t *testing.T) {
	cfg := smallConfig(t)
	w, err := newWorkload("up-stream", cfg.seed, true)
	if err != nil {
		t.Fatal(err)
	}
	bad := *w.scenarios[0].host
	bad.Name, bad.VMs = "too-many-vms", 1<<20 // refused by validation
	w.scenarios = append(w.scenarios, scenario{host: &bad})
	w.warmup = append(w.warmup, scenario{host: &bad})
	res := measureE2E(w, cfg, io.Discard)
	// The bad scenario fails in the warm-up, the timed pass and the
	// set-up build.
	if res.Correct || res.Failed != 3 {
		t.Fatalf("correct=%v failed=%d of %d, want 3 failures", res.Correct, res.Failed, res.Attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestBareTraceFlag(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"-trace", "-seed", "3"}, []string{"-trace=1", "-seed", "3"}},
		{[]string{"--trace", "0"}, []string{"--trace", "0"}},
	} {
		if got := bareTrace(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("bareTrace(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

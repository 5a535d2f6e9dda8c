// Command bench is the ES2 simulator's black-box benchmark. It times
// what a user of the simulator waits for — host time to regenerate the
// paper's single-host scenarios and a rack — on four event-path
// workloads, and with -trace reports per-layer numbers: engine
// statistics of a traced pass, layer microbenchmarks and observer
// on/off overheads.
//
// Usage (from the repository root):
//
//	go -C bench run . [-workload all|NAME] [-seed N] [-seconds S] [-trace [0|1]] [-out DIR]
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"es2/experiments"
)

// config sizes one benchmark run. The command line sets seed, seconds
// and out; the smoke test shrinks the rest.
type config struct {
	seed uint64
	// seconds is the budget for timed passes: passes start until it is
	// used up, and at least one always runs.
	seconds float64
	// out is the directory the traced run writes its span files to.
	out          string
	setupBuilds  int
	microBatches int
	obsPairs     int
	obsScale     float64
}

func defaultConfig() config {
	return config{seed: experiments.Seed, seconds: 20, out: filepath.Join("bench", "out"),
		setupBuilds: setupBuilds, microBatches: microBatches,
		obsPairs: observerPairs, obsScale: observerScale}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricUnit names a reported metric and its unit.
type metricUnit struct{ name, unit string }

// e2eUnits are the end-to-end metrics a -trace 0 run reports.
var e2eUnits = []metricUnit{
	{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (one child process per workload)")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed applied to every scenario spec")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "budget in seconds for the timed passes of one workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode instead of the end-to-end one")
	fs.StringVar(&cfg.out, "out", cfg.out, "directory for the traced run's span files")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	if os.Getenv("ES2_CHECK") != "" {
		// The invariant checker would silently run inside every timed call.
		fmt.Fprintln(stderr, "bench: ES2_CHECK is set; unset it to benchmark")
		return 2
	}
	if *name == "all" {
		return runAll(cfg, *trace == 1, stdout, stderr)
	}
	w, err := newWorkload(*name, cfg.seed, false)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var res result
	if *trace == 1 {
		res, err = measureLayers(w, cfg, stdout)
	} else {
		res = measureE2E(w, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return printResult(stdout, res)
}

// bareTrace lets -trace stand alone, as a boolean would, while the
// explicit form "--trace 0|1" keeps working.
func bareTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a == "--" {
			break
		}
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (len(out[i+1]) > 0 && out[i+1][0] == '-') {
			out[i] = "-trace=1"
		}
	}
	return out
}

func printResult(w io.Writer, res result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode result:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// measureE2E runs the untimed warm-up, timed passes until the budget is
// spent, then the set-up builds, and reports wall_s, setup_s and
// peak_rss_mb. Every timed pass must encode exactly like the first.
func measureE2E(w workload, cfg config, out io.Writer) result {
	fmt.Fprintf(out, "workload %s (seed %d): %s\n", w.name, cfg.seed, w.why)
	var t tally
	t.add(runPass(w.warmup, nil, "warm-up", 0), nil)
	var first pass
	var ref [][sha256.Size]byte
	var totals, raw []float64
	perScenario := make([][]float64, len(w.scenarios))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for start := time.Now(); len(totals) == 0 || time.Since(start) < budget; {
		runtime.GC()
		p := runPass(w.scenarios, nil, "pass", 0)
		if ref == nil {
			first, ref = p, digests(p)
		}
		t.add(p, ref)
		for i, x := range p.times {
			perScenario[i] = append(perScenario[i], x)
		}
		totals = append(totals, p.calibrated())
		raw = append(raw, p.wall.Seconds())
	}
	// A typical pass: the sum of each scenario's median, which one
	// scenario slowed by a noisy neighbour cannot move.
	wall := 0.0
	for _, xs := range perScenario {
		wall += median(xs)
	}
	rss := peakRSSMB()
	setup := measureSetup(w.scenarios, cfg.setupBuilds, nil, 0, &t)
	setupS := make([]float64, len(setup))
	for i, s := range setup {
		setupS[i] = s.seconds
	}
	for _, e := range t.errors {
		fmt.Fprintln(out, "  failed:", e)
	}
	p1, _, p3 := quartiles(totals)
	fmt.Fprintf(out, "  %-13s %.6g s (sum of per-scenario medians; pass q1 %.6g, q3 %.6g; n=%d passes)\n",
		"wall_s", wall, p1, p3, len(totals))
	fmt.Fprintf(out, "  %-13s %.4g (uncalibrated host time of each pass)\n", "raw_passes_s", raw)
	q1, q2, q3 := quartiles(setupS)
	fmt.Fprintf(out, "  %-13s %.6g s (median; q1 %.6g, q3 %.6g; n=%d builds)\n", "setup_s", q2, q1, q3, len(setupS))
	fmt.Fprintf(out, "  %-13s %.4g MB (n=1, after the timed passes)\n", "peak_rss_mb", rss)
	fmt.Fprintf(out, "  %-13s %.4g (%d of %d scenario runs failed; n=%d)\n", "failed_frac",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted, t.attempted)
	fmt.Fprintf(out, "  %-13s %s\n", "result_sha256", passDigest(first))
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{
			"wall_s":      {wall, "s"},
			"setup_s":     {median(setupS), "s"},
			"peak_rss_mb": {rss, "MB"},
		}}
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runAll re-executes this binary once per workload, so each workload's
// peak RSS is its own process's, and prints one combined result whose
// metric names are prefixed "<workload>/".
func runAll(cfg config, trace bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	for _, name := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg, "-out", cfg.out)
		cmd.Stdout = io.MultiWriter(&buf, stdout)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			return 1
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	if !trace {
		fmt.Fprintf(stdout, "\n%-14s", "workload")
		for _, m := range e2eUnits {
			fmt.Fprintf(stdout, " %14s", m.name+" ("+m.unit+")")
		}
		fmt.Fprintln(stdout)
		for _, name := range workloadNames {
			fmt.Fprintf(stdout, "%-14s", name)
			for _, m := range e2eUnits {
				fmt.Fprintf(stdout, " %14.6g", all.Metrics[name+"/"+m.name].Value)
			}
			fmt.Fprintln(stdout)
		}
	}
	return printResult(stdout, all)
}

// lastResult decodes the final line of a child's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if last == nil {
		return res, errors.New("no result line")
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// median is the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method);
// a single value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	// The exclusive method's middle cut is the median.
	return q[0], q[1], q[2]
}

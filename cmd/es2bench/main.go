// Command es2bench regenerates every table and figure of the paper's
// evaluation from the simulator.
//
// Usage:
//
//	es2bench [-exp all|table1|fig4a|fig4b|fig5a|fig5b|fig6a|fig6b|fig7|fig8a|fig8b|fig9]
//	         [-parallel N] [-seed S] [-list] [-json FILE] [-profile-dir DIR]
//	         [-timeline-dir DIR] [-telemetry-dir DIR] [-check] [-engine-stats]
//	es2bench -perf [-reps N] [-exp IDS] [-scale F] [-seed S] [-json FILE] [-progress]
//	es2bench -compare old.json new.json [-threshold F]
//
// Each experiment prints the paper's claim followed by the regenerated
// rows/series.
//
// -perf benchmarks the engine itself: every scenario (single-host and
// cluster ids both resolve; -scale shrinks cluster runs) executes
// -reps times sequentially with engine stats on, and the per-rep wall
// times with mean/stddev/95% CI land in a BENCH_engine.json envelope
// (schema es2bench-engine/v1). -compare judges two envelopes
// benchstat-style — a delta is significant when the 95% confidence
// intervals do not overlap — and exits non-zero when a significant
// slowdown exceeds -threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"es2"
	"es2/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment id or 'all'")
	parallel := flag.Int("parallel", 0, "parallel scenario runs (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	timelineDir := flag.String("timeline-dir", "", "write one Perfetto/Chrome-trace JSON timeline per scenario into DIR")
	profileDir := flag.String("profile-dir", "", "write one pprof CPU profile (.pb.gz) and folded stacks (.folded) per scenario into DIR")
	telemetryDir := flag.String("telemetry-dir", "", "write one OpenMetrics exposition (.prom) and windowed CSV (.csv) per scenario into DIR")
	critDir := flag.String("critpath-dir", "", "enable the causal critical-path analyzer and write one blame/exemplar/what-if JSON per scenario into DIR")
	jsonOut := flag.String("json", "", "write all experiment results as machine-readable JSON to FILE ('-' for stdout; schema in EXPERIMENTS.md)")
	check := flag.Bool("check", false, "enable the runtime invariant checker in every scenario (also: ES2_CHECK=1)")
	engineStats := flag.Bool("engine-stats", false, "print the engine performance report per scenario")
	perfMode := flag.Bool("perf", false, "benchmark the engine: run each scenario -reps times and emit BENCH_engine.json")
	reps := flag.Int("reps", 5, "repetitions per scenario in -perf mode")
	scale := flag.Float64("scale", 1, "shrink cluster experiments by this factor in -perf mode (see es2cluster -scale)")
	progress := flag.Bool("progress", false, "with -perf: print one stderr heartbeat line per rep (wall time, events/sec) so long benchmark runs are not silent")
	compareMode := flag.Bool("compare", false, "compare two BENCH_engine.json files (old new); exit non-zero on confirmed regressions")
	threshold := flag.Float64("threshold", 0.10, "relative slowdown beyond which a significant delta is a regression in -compare mode")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "es2bench: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	if *perfMode {
		if err := runPerf(*expFlag, *reps, *seed, *scale, *jsonOut, *progress); err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Extensions() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []experiments.Experiment
	if *expFlag == "all" {
		exps = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := experiments.ByIDWithExtensions(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "es2bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, dir := range []string{*timelineDir, *profileDir, *telemetryDir, *critDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
			os.Exit(1)
		}
	}

	report := jsonReport{Schema: "es2bench/v1", Seed: *seed}
	for _, e := range exps {
		if *seed != 0 {
			for i := range e.Specs {
				e.Specs[i].Seed = *seed
			}
		}
		for i := range e.Specs {
			if *timelineDir != "" {
				e.Specs[i].Timeline = true
			}
			if *profileDir != "" {
				e.Specs[i].CPUProfile = true
			}
			if *telemetryDir != "" {
				e.Specs[i].Telemetry = true
			}
			if *critDir != "" {
				e.Specs[i].CritPath = true
			}
			if *check {
				e.Specs[i].Check = true
			}
			// Engine stats are always on: they never perturb results,
			// cost a few percent of wall time (EXPERIMENTS.md has the
			// measured figure), and put real wall time into the JSON
			// envelope instead of the old ad-hoc time.Since print.
			e.Specs[i].EngineStats = true
		}
		results, err := es2.RunMany(e.Specs, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for i, r := range results {
			base := fmt.Sprintf("%s-%02d-%s", e.ID, i, sanitize(r.Name))
			if *timelineDir != "" {
				if err := writeTimeline(filepath.Join(*timelineDir, base+".json"), r); err != nil {
					fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
					os.Exit(1)
				}
			}
			if *profileDir != "" {
				if err := writeProfiles(filepath.Join(*profileDir, base), r); err != nil {
					fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
					os.Exit(1)
				}
			}
			if *telemetryDir != "" {
				if err := writeTelemetry(filepath.Join(*telemetryDir, base), r); err != nil {
					fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
					os.Exit(1)
				}
			}
			if *critDir != "" {
				if err := writeCritPath(filepath.Join(*critDir, base+".json"), r); err != nil {
					fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		wall, events := engineWallSummary(results)
		if *jsonOut != "" {
			report.Experiments = append(report.Experiments, jsonExperiment{
				ID: e.ID, Title: e.Title, PaperClaim: e.PaperClaim,
				WallNs: wall.Nanoseconds(), EventsFired: events, Results: results,
			})
		}
		fmt.Printf("=== %s — %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n\n", e.PaperClaim)
		fmt.Println(indent(e.Render(results), "    "))
		if *engineStats {
			for _, r := range results {
				if r.EngineReport == nil {
					continue
				}
				fmt.Printf("    --- %s\n", r.Name)
				fmt.Println(indent(r.EngineReport.Render(), "    "))
			}
		}
		fmt.Printf("    (%d scenarios, %v engine wall time, %d events)\n\n",
			len(e.Specs), wall.Round(time.Millisecond), events)
	}

	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
			os.Exit(1)
		}
		// Table 1 is the headline reproduction: publish it as its own
		// artifact (BENCH_table1.json, same es2bench/v1 envelope) next to
		// the full report so dashboards can fetch it without parsing the
		// whole run.
		if *jsonOut != "-" {
			if err := writeTable1Report(*jsonOut, report); err != nil {
				fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
				os.Exit(1)
			}
			// Likewise the critical-path study: BENCH_critpath.json is the
			// artifact CI's blame-share regression gate validates.
			if err := writeCritpathReport(*jsonOut, report); err != nil {
				fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// jsonReport is the -json envelope ("Machine-readable results" in
// EXPERIMENTS.md).
type jsonReport struct {
	Schema string `json:"schema"`
	// Seed is the -seed override (0 = each experiment's default seed).
	Seed        uint64           `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	PaperClaim string `json:"paper_claim"`
	// WallNs and EventsFired sum the per-scenario engine measurements
	// (real wall time inside Engine.Run; machine-dependent).
	WallNs      int64         `json:"wall_ns"`
	EventsFired uint64        `json:"events_fired"`
	Results     []*es2.Result `json:"results"`
}

func writeJSONReport(path string, rep jsonReport) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeTable1Report extracts the table1 experiment from the full report
// and writes it as BENCH_table1.json in the same directory as the -json
// output. A run that did not include table1 writes nothing.
func writeTable1Report(jsonPath string, rep jsonReport) error {
	sub := jsonReport{Schema: rep.Schema, Seed: rep.Seed}
	for _, e := range rep.Experiments {
		if e.ID == "table1" {
			sub.Experiments = append(sub.Experiments, e)
		}
	}
	if len(sub.Experiments) == 0 {
		return nil
	}
	return writeJSONReport(filepath.Join(filepath.Dir(jsonPath), "BENCH_table1.json"), sub)
}

// writeCritpathReport extracts the critpath experiment from the full
// report and writes it as BENCH_critpath.json next to the -json
// output. A run that did not include critpath writes nothing.
func writeCritpathReport(jsonPath string, rep jsonReport) error {
	sub := jsonReport{Schema: rep.Schema, Seed: rep.Seed}
	for _, e := range rep.Experiments {
		if e.ID == "critpath" {
			sub.Experiments = append(sub.Experiments, e)
		}
	}
	if len(sub.Experiments) == 0 {
		return nil
	}
	return writeJSONReport(filepath.Join(filepath.Dir(jsonPath), "BENCH_critpath.json"), sub)
}

// writeCritPath writes one scenario's critical-path report as JSON.
func writeCritPath(path string, r *es2.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(r.CriticalPath)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTelemetry writes base.prom (OpenMetrics exposition) and base.csv
// (windowed series) for one scenario result.
func writeTelemetry(base string, r *es2.Result) error {
	f, err := os.Create(base + ".prom")
	if err != nil {
		return err
	}
	err = r.TelemetryRecorder.WriteOpenMetrics(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err = os.Create(base + ".csv")
	if err != nil {
		return err
	}
	err = r.TelemetryRecorder.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeProfiles writes base.pb.gz (pprof) and base.folded (flamegraph
// stacks) for one scenario result.
func writeProfiles(base string, r *es2.Result) error {
	f, err := os.Create(base + ".pb.gz")
	if err != nil {
		return err
	}
	err = r.CPUProfile.WritePprof(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f, err = os.Create(base + ".folded")
	if err != nil {
		return err
	}
	err = r.CPUProfile.WriteFolded(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize maps a scenario name to a safe file-name fragment. Names
// that differ only in remapped runes (e.g. "a/b" and "a:b") get
// distinct fragments — an FNV tag of the original is appended whenever
// any rune was remapped — so no two scenarios can overwrite each
// other's artifacts.
func sanitize(s string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
	if mapped == s {
		return mapped
	}
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s-%08x", mapped, h.Sum32())
}

func writeTimeline(path string, r *es2.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.Timeline.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n")
}

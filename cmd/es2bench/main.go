// Command es2bench regenerates every table and figure of the paper's
// evaluation from the simulator.
//
// Usage:
//
//	es2bench [-exp all|table1|fig4a|fig4b|fig5a|fig5b|fig6a|fig6b|fig7|fig8a|fig8b|fig9]
//	         [-parallel N] [-seed S] [-list] [-json FILE] [-profile-dir DIR]
//	         [-timeline-dir DIR] [-telemetry-dir DIR] [-check] [-engine-stats]
//
// Each experiment prints the paper's claim followed by the regenerated
// rows/series. The simulator's own host time, set-up cost and memory
// are measured by the benchmark module (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"es2"
	"es2/experiments"
	"es2/internal/cliflags"
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
	engineStats := flag.Bool("engine-stats", false, "print the engine performance report per scenario; scenarios then run one at a time, since the report's memory figures are process-wide")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	if *engineStats {
		// Concurrent scenarios would fold their neighbours' allocations
		// and GC pauses into each report's memory line.
		*parallel = 1
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
			// Engine stats are always on: they never perturb results
			// and put each experiment's engine wall time and event
			// count into the closing line and the JSON envelope. Their
			// cost is in EXPERIMENTS.md, "Engine performance".
			e.Specs[i].EngineStats = true
		}
		results, err := es2.RunMany(e.Specs, *parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for i, r := range results {
			if err := writeArtifacts(fmt.Sprintf("%s-%02d-%s", e.ID, i, cliflags.Sanitize(r.Name)), r,
				*timelineDir, *profileDir, *telemetryDir, *critDir); err != nil {
				fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
				os.Exit(1)
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
		fmt.Println(cliflags.Indent(e.Render(results), "    "))
		if *engineStats {
			for _, r := range results {
				if r.EngineReport == nil {
					continue
				}
				fmt.Printf("    --- %s\n", r.Name)
				fmt.Println(cliflags.Indent(r.EngineReport.Render(), "    "))
			}
		}
		fmt.Printf("    (%d scenarios, %v engine wall time, %d events)\n\n",
			len(e.Specs), wall.Round(time.Millisecond), events)
	}

	if *jsonOut != "" {
		if err := cliflags.WriteJSON(*jsonOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
			os.Exit(1)
		}
		// Table 1 is the headline reproduction, and BENCH_critpath.json
		// is the artifact CI's blame-share regression gate validates:
		// publish each as its own artifact next to the full report, so
		// dashboards and gates can fetch it without parsing the whole
		// run.
		if *jsonOut != "-" {
			for _, id := range []string{"table1", "critpath"} {
				if err := writeSubReport(*jsonOut, id, report); err != nil {
					fmt.Fprintf(os.Stderr, "es2bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
}

// engineWallSummary sums per-scenario engine wall time and fired events
// for an experiment's closing line and its JSON entry.
func engineWallSummary(results []*es2.Result) (wall time.Duration, events uint64) {
	for _, r := range results {
		if r.EngineReport == nil {
			continue
		}
		wall += time.Duration(r.EngineReport.WallNs)
		events += r.EngineReport.EventsFired
	}
	return wall, events
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

// writeSubReport extracts experiment id from the full report and
// writes it as BENCH_<id>.json, in the same es2bench/v1 envelope, next
// to the -json output. A run that did not include id writes nothing.
func writeSubReport(jsonPath, id string, rep jsonReport) error {
	sub := jsonReport{Schema: rep.Schema, Seed: rep.Seed}
	for _, e := range rep.Experiments {
		if e.ID == id {
			sub.Experiments = append(sub.Experiments, e)
		}
	}
	if len(sub.Experiments) == 0 {
		return nil
	}
	return cliflags.WriteJSON(filepath.Join(filepath.Dir(jsonPath), "BENCH_"+id+".json"), sub)
}

// writeArtifacts writes one scenario's exports under base into each
// requested directory: the timeline (.json), the CPU profile (.pb.gz
// and .folded flamegraph stacks), the telemetry (.prom and .csv) and
// the critical-path report (.json).
func writeArtifacts(base string, r *es2.Result, timelineDir, profileDir, telemetryDir, critDir string) error {
	if timelineDir != "" {
		if err := cliflags.WriteFile(filepath.Join(timelineDir, base+".json"), r.Timeline.WriteJSON); err != nil {
			return err
		}
	}
	if profileDir != "" {
		prefix := filepath.Join(profileDir, base)
		if err := cliflags.WriteFile(prefix+".pb.gz", r.CPUProfile.WritePprof); err != nil {
			return err
		}
		if err := cliflags.WriteFile(prefix+".folded", r.CPUProfile.WriteFolded); err != nil {
			return err
		}
	}
	return cliflags.WriteExports(base, r.TelemetryRecorder, r.CriticalPath, telemetryDir, critDir)
}

// dias-experiments regenerates the paper's tables and figures.
//
//	dias-experiments [-fig list|all|NAME[,NAME...]]
//	                 [-jobs N] [-seed S] [-workers W]
//	                 [-replicas R] [-bench-out BENCH_results.json]
//	                 [-trace trace.json] [-events events.jsonl]
//	                 [-timeline timeline.csv] [-max-sys-mb M]
//	                 [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -fig list prints every registered figure with its description; -fig also
// accepts a comma-separated list (e.g. -fig 7,federation-scaleout). The
// figure set is the experiments package's driver registry — each driver
// self-registers with experiments.Register, so this binary has no
// hand-maintained figure switch.
//
// -trace, -events and -timeline arm the telemetry layer on the first-seed
// run of every selected figure (replica runs stay untraced) and export,
// respectively, a Chrome trace_event JSON file (open with Perfetto or
// chrome://tracing), the raw span-event stream as JSONL (feed to
// dias-trace), and the periodic gauge timeline as CSV. Tracing is
// observational only: figure output and BENCH_results.json are
// byte-identical with or without it, and the exports themselves are
// byte-identical at any -workers count.
//
// -cpuprofile and -memprofile write pprof profiles of the figure drivers
// alone (flag handling, report and export writing stay outside), so a
// profile of a real figure run needs no throwaway binary; inspect with
// `go tool pprof`. See docs/BENCHMARKING.md.
//
// Output is the textual form of each figure: baseline absolutes plus
// relative differences, exactly the quantities the paper plots. Every
// figure fans its independent simulation runs (scenario × policy × seed)
// across the worker pool; -replicas repeats each figure under consecutive
// seeds and reports mean ± 95% CI aggregates. The run also writes a
// machine-readable benchmark report (per-figure wall-clock, per-class
// latency/waste/energy, seed list, git SHA) so the perf trajectory is
// tracked across PRs; see README.md for the schema.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"dias/internal/experiments"
	"dias/internal/metrics"
	"dias/internal/runner"
	"dias/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure(s) to regenerate, comma-separated; 'list' prints the catalogue")
	jobs := flag.Int("jobs", 0, "arrivals per scenario (0 = full scale)")
	seed := flag.Int64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "concurrent simulation runs per figure (0 = one per CPU core)")
	replicas := flag.Int("replicas", 1, "seed replicas per figure (seeds seed..seed+R-1)")
	benchOut := flag.String("bench-out", "BENCH_results.json", "write the machine-readable benchmark report here (empty = skip)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file here (empty = no tracing)")
	eventsOut := flag.String("events", "", "write the raw telemetry event stream as JSONL here (empty = skip)")
	timelineOut := flag.String("timeline", "", "write the gauge timeline as CSV here (empty = skip)")
	maxSysMB := flag.Int("max-sys-mb", 0, "fail if the Go heap reserves more than this many MiB from the OS (0 = no ceiling)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure drivers here (empty = skip)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the last figure here (empty = skip)")
	flag.Parse()

	if *fig == "list" {
		listFigures()
		return
	}
	scale := experiments.FullScale()
	scale.Seed = *seed
	scale.Workers = *workers
	if *jobs > 0 {
		scale.Jobs = *jobs
	}
	if *replicas < 1 {
		*replicas = 1
	}
	// Fail fast on an unwritable -bench-out path: the report is written
	// after every figure has run, and discovering a bad path only then
	// throws the whole run away.
	if err := checkBenchOut(*benchOut); err != nil {
		fmt.Fprintf(os.Stderr, "dias-experiments: %v\nusage: -bench-out must name a file in a writable directory (or be empty to skip the report)\n", err)
		os.Exit(2)
	}
	exports := exportPaths{trace: *traceOut, events: *eventsOut, timeline: *timelineOut}
	profiles := profilePaths{cpu: *cpuProfile, mem: *memProfile}
	if err := run(*fig, scale, *replicas, *benchOut, exports, profiles); err != nil {
		fmt.Fprintln(os.Stderr, "dias-experiments:", err)
		os.Exit(1)
	}
	if err := checkSysCeiling(*maxSysMB); err != nil {
		fmt.Fprintln(os.Stderr, "dias-experiments:", err)
		os.Exit(1)
	}
}

// checkSysCeiling asserts the process-lifetime memory high-water mark
// against -max-sys-mb. MemStats.Sys is what the runtime reserved from the
// OS — a monotone RSS proxy, so an earlier million-job spike still trips
// the ceiling even after the GC has collected the garbage. This is the
// scale-smoke memory-bounding gate: a per-job leak on the streaming path
// shows up here long before it OOMs anything.
func checkSysCeiling(maxMB int) error {
	if maxMB <= 0 {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sysMB := float64(ms.Sys) / (1 << 20)
	fmt.Fprintf(os.Stderr, "dias-experiments: memory high-water %.0f MiB (ceiling %d MiB)\n", sysMB, maxMB)
	if sysMB > float64(maxMB) {
		return fmt.Errorf("memory high-water %.0f MiB exceeds -max-sys-mb %d", sysMB, maxMB)
	}
	return nil
}

// profilePaths names the pprof outputs; empty paths are skipped.
type profilePaths struct {
	cpu, mem string
}

// start opens both files (so a bad path fails before any figure runs) and
// begins the CPU profile. The returned stop ends it and writes the heap
// profile; it does so once, and later calls repeat the first one's error.
func (p profilePaths) start() (stop func() error, err error) {
	var cpu, mem *os.File
	fail := func(what string, err error) (func() error, error) {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close()
			}
		}
		return nil, fmt.Errorf("%s profile: %w", what, err)
	}
	if p.mem != "" {
		if mem, err = os.Create(p.mem); err != nil {
			return fail("heap", err)
		}
	}
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return fail("cpu", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return fail("cpu", err)
		}
	}
	return sync.OnceValue(func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC() // the profile reports what is live as of the last collection
			if err := pprof.WriteHeapProfile(mem); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
			if err := mem.Close(); err != nil {
				errs = append(errs, fmt.Errorf("heap profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}), nil
}

// exportPaths collects the telemetry export destinations; any non-empty
// path arms tracing.
type exportPaths struct {
	trace, events, timeline string
}

func (e exportPaths) armed() bool { return e.trace != "" || e.events != "" || e.timeline != "" }

// write exports the registry to every requested destination.
func (e exportPaths) write(reg *telemetry.Registry) error {
	type export struct {
		path  string
		label string
		fn    func(*os.File) error
	}
	for _, x := range []export{
		{e.trace, "trace", func(f *os.File) error { return reg.WriteChromeTrace(f) }},
		{e.events, "events", func(f *os.File) error { return reg.WriteEventsJSONL(f) }},
		{e.timeline, "timeline", func(f *os.File) error { return reg.WriteTimelineCSV(f) }},
	} {
		if x.path == "" {
			continue
		}
		f, err := os.Create(x.path)
		if err != nil {
			return fmt.Errorf("writing %s: %w", x.label, err)
		}
		if err := x.fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", x.label, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", x.label, err)
		}
		fmt.Fprintf(os.Stderr, "dias-experiments: wrote %s %s\n", x.label, x.path)
	}
	return nil
}

// listFigures prints the driver catalogue in run order.
func listFigures() {
	fmt.Println("Registered figures (run order under -fig all):")
	for _, d := range experiments.Drivers() {
		notes := ""
		if d.SkipInAll {
			notes = "  [not in 'all']"
		}
		fmt.Printf("  %-21s %s%s\n", d.Name, d.Description, notes)
	}
}

// checkBenchOut verifies the benchmark report destination is writable by
// creating and removing a probe file next to it, without touching any
// existing report.
func checkBenchOut(path string) error {
	if path == "" {
		return nil
	}
	if fi, err := os.Stat(path); err == nil {
		if fi.IsDir() {
			return fmt.Errorf("bench-out %q is a directory", path)
		}
		// The report overwrites an existing file in place; probe that
		// exact file, not just its directory.
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("bench-out %q is not writable: %w", path, err)
		}
		f.Close()
		return nil
	}
	probe, err := os.CreateTemp(filepath.Dir(path), ".bench-out-probe-*")
	if err != nil {
		return fmt.Errorf("bench-out %q is not writable: %w", path, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// benchReport is the BENCH_results.json payload.
type benchReport struct {
	SchemaVersion     int            `json:"schema_version"`
	GeneratedAt       string         `json:"generated_at"`
	GitSHA            string         `json:"git_sha"`
	GoVersion         string         `json:"go_version"`
	Workers           int            `json:"workers"`
	Seeds             []int64        `json:"seeds"`
	JobsPerScenario   int            `json:"jobs_per_scenario"`
	TotalWallClockSec float64        `json:"total_wall_clock_sec"`
	Figures           []figureReport `json:"figures"`
}

type figureReport struct {
	Name         string  `json:"name"`
	WallClockSec float64 `json:"wall_clock_sec"`
	// Scenarios holds the per-scenario mean ± 95% CI aggregates across the
	// seed replicas, for figures that expose scenario grids (7-11, the
	// ablation and extension comparisons). Model-validation figures (4-6)
	// report wall-clock only.
	Scenarios []runner.Summary `json:"scenarios,omitempty"`
}

func run(fig string, scale experiments.Scale, replicas int, benchOut string, exports exportPaths, profiles profilePaths) error {
	// -fig accepts a comma-separated selection; "all" anywhere in the list
	// wins.
	want := make(map[string]bool)
	for _, name := range strings.Split(fig, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	// Fail fast on typos: every requested name must exist before anything
	// runs, so a bad entry cannot waste the valid figures' run time.
	var unknown []string
	for name := range want {
		if _, ok := experiments.Lookup(name); !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown figure(s) %q (see -fig list)", strings.Join(unknown, ","))
	}
	if !all && len(want) == 0 {
		return fmt.Errorf("no figure selected in %q", fig)
	}
	seeds := runner.Seeds(scale.Seed, replicas)
	var reg *telemetry.Registry
	if exports.armed() {
		reg = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	}
	report := benchReport{
		SchemaVersion:   1,
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		GitSHA:          gitSHA(),
		GoVersion:       runtime.Version(),
		Workers:         runner.New(scale.Workers).Workers(),
		Seeds:           seeds,
		JobsPerScenario: scale.Jobs,
	}
	stopProfiles, err := profiles.start()
	if err != nil {
		return err
	}
	defer stopProfiles() // a failing figure still leaves a readable CPU profile
	start := time.Now()
	for _, d := range experiments.Drivers() {
		if !all && !want[d.Name] {
			continue
		}
		if all && d.SkipInAll {
			continue
		}
		figStart := time.Now()
		sc0 := d.Scaled(scale)
		sc0.Seed = seeds[0]
		if reg != nil {
			// Only the first-seed run is traced; figure names namespace the
			// collectors so scenario names never collide across figures.
			sc0.Telemetry = reg.Namespace(d.Name)
		}
		first, err := d.Run(sc0)
		if err != nil {
			return fmt.Errorf("figure %s (seed %d): %w", d.Name, seeds[0], err)
		}
		fmt.Println(first.Text.String())
		fmt.Println()
		perSeed := [][]metrics.ScenarioResult{first.Scenarios}
		// Replicas beyond the first only feed the aggregates; figures
		// without a scenario grid (motivation, 4-6, table2) have nothing
		// to aggregate, so they run once regardless of -replicas. The
		// replica loop itself is serial (pool of one): each figure already
		// fans its own grid across every core.
		if len(first.Scenarios) > 0 && len(seeds) > 1 {
			rest, err := runner.Replicated(context.Background(), runner.New(1), seeds[1:],
				func(_ context.Context, sd int64) ([]metrics.ScenarioResult, error) {
					sc := d.Scaled(scale)
					sc.Seed = sd
					out, err := d.Run(sc)
					if err != nil {
						return nil, err
					}
					return out.Scenarios, nil
				})
			if err != nil {
				return fmt.Errorf("figure %s replicas: %w", d.Name, err)
			}
			perSeed = append(perSeed, rest...)
		}
		fr := figureReport{Name: d.Name, WallClockSec: time.Since(figStart).Seconds()}
		if len(first.Scenarios) > 0 {
			repSeeds := seeds[:len(perSeed)]
			sums, err := runner.SummarizeAll(repSeeds, perSeed)
			if err != nil {
				return fmt.Errorf("figure %s: aggregating replicas: %w", d.Name, err)
			}
			fr.Scenarios = sums
			if len(repSeeds) > 1 {
				printAggregates(d.Name, sums)
			}
		}
		report.Figures = append(report.Figures, fr)
	}
	report.TotalWallClockSec = time.Since(start).Seconds()
	if err := stopProfiles(); err != nil {
		return err
	}
	if reg != nil {
		if err := exports.write(reg); err != nil {
			return err
		}
	}
	if benchOut != "" {
		if err := writeReport(benchOut, &report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dias-experiments: wrote %s (%.1fs total)\n", benchOut, report.TotalWallClockSec)
	}
	return nil
}

// gitSHA stamps the report with the commit being measured.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printAggregates renders the replica mean ± CI of each scenario's
// low/high-class response.
func printAggregates(name string, sums []runner.Summary) {
	fmt.Printf("figure %s replica aggregates (%d seeds, mean ± 95%% CI):\n", name, len(sums[0].Seeds))
	for _, s := range sums {
		fmt.Printf("  %-16s", s.Name)
		for _, c := range s.PerClass {
			fmt.Printf("  class%d %8.1f ± %5.1fs", c.Class, c.MeanResponseSec.Mean, c.MeanResponseSec.CI95)
		}
		fmt.Printf("  waste %.1f%%\n", s.ResourceWastePct.Mean)
	}
	fmt.Println()
}

func writeReport(path string, r *benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding benchmark report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing benchmark report: %w", err)
	}
	return nil
}

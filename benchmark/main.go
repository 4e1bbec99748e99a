// Command benchmark is this repository's performance benchmark of record
// (see BENCHMARK.json at the repo root and README.md beside this file).
//
// One invocation measures one workload in its own process:
//
//	bash benchmark/run.sh --workload fed8-text --seed 1 --seconds 15 --trace 0
//
// builds the inputs from the seed (several times, reporting the median as
// setup_s), runs a discarded warm-up repetition, then repeats the fixed-
// size repetition with tracing off until --seconds is spent and prints the
// median of every end-to-end metric. With --trace 1 it instead runs one
// untraced and one traced repetition plus the isolated per-layer probes
// and prints every per-layer metric. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Set-up is repeated at least minSetupReps times and until setupSpan of
// wall time is spent (a no-op template sets up in microseconds, and one
// such reading is noise); setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 5000
	setupSpan    = time.Second
)

// metricDef declares one metric; BENCHMARK.json carries the same list
// (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics is what a user of the simulator sees: how fast and how
// cheaply the host regenerates results, what set-up costs, and the two
// simulated outcomes that hold still across seeds. The rest of the
// simulated triad (response times, energy) is exact per seed but swings
// with the seed, so it is reported under sim.* with the per-layer metrics.
var endToEndMetrics = []metricDef{
	{"sim_jobs_per_wall_s", "jobs/s", "higher"},
	{"wall_s", "s", "lower"},
	{"allocs_per_job", "allocs/job", "lower"},
	{"alloc_kib_per_job", "KiB/job", "lower"},
	{"peak_sys_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_useful_work_pct", "%", "higher"},
	{"sim_accuracy_pct", "%", "higher"},
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	probes    bool
	selfcheck bool
	outDir    string
	spec      string
}

// value is one reported metric: the median over n samples with the range
// beside it, so a noisy run is visible rather than silently averaged.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// counted is a value read once, with the sample count behind it.
func counted(v float64, unit string, n int) value {
	return value{Value: v, Unit: unit, Min: v, Max: v, N: n}
}

func medianOf(xs []float64, unit string) value {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return value{Value: med, Unit: unit, Min: sorted[0], Max: sorted[n-1], N: n}
}

// envStamp records where and on what a result was taken.
type envStamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Jobs       int     `json:"jobs_per_repetition"`
	WarmJobs   int     `json:"jobs_per_warmup"`
	LoadStart  float64 `json:"loadavg_1m_start"`
	LoadEnd    float64 `json:"loadavg_1m_end"`
}

// report is everything one invocation found; its last-line form is what
// the driver parses, the full form goes to <out>/result-<workload>.json.
type report struct {
	Env       envStamp         `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"digest"`
	Metrics   map[string]value `json:"metrics"`
	// WallSamples lists every timed repetition's wall seconds in run order,
	// so drift inside one invocation can be told from a noisy repetition.
	WallSamples []float64 `json:"wall_s_samples,omitempty"`
	order       []string
}

func (r *report) set(name string, v value) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = v
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", 15, "wall seconds of timed repetitions (untraced) or of probes (traced)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced repetition + per-layer probes")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny job counts and probe slices: checks wiring, measures nothing")
	flag.BoolVar(&opt.probes, "probes", false, "run only the isolated per-layer probes")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run every workload twice and compare the medians against the declared bounds")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for result and trace files")
	flag.StringVar(&opt.spec, "spec", "BENCHMARK.json", "benchmark declaration (bounds for -selfcheck)")
	flag.Parse()
	opt.trace = trace != 0
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

var errIncorrect = errors.New("outputs are not correct (see the result line)")

func run(opt options) error {
	// One P: the simulation kernel is serial, so the only use a run has for a
	// second core is concurrent GC (and figure-set's worker pool). On the
	// shared 2-vCPU box this was sized on, anything else that wakes up on
	// the other core moved wall time by +18-66% at GOMAXPROCS=2 and by
	// nothing at 1, where wall time is the CPU the run costs, GC included.
	runtime.GOMAXPROCS(benchProcs)
	if opt.selfcheck {
		return selfcheck(opt)
	}
	if opt.probes {
		rep := newReport(opt, workloadSpec{name: "probes"})
		if err := addProbes(rep, opt); err != nil {
			return err
		}
		rep.Correct, rep.Attempted = true, len(rep.Metrics)
		return rep.emit(opt)
	}
	w, ok := lookupWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds %g must be positive", opt.seconds)
	}
	var rep *report
	var err error
	if opt.trace {
		rep, err = runTraced(w, opt)
	} else {
		rep, err = runEndToEnd(w, opt)
	}
	if err != nil {
		return err
	}
	if err := rep.emit(opt); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

func newReport(opt options, w workloadSpec) *report {
	env := envStamp{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       opt.seed,
		Workload:   w.name,
		Jobs:       w.jobs,
		WarmJobs:   w.warmJobs,
		LoadStart:  loadAverage(),
	}
	if opt.smoke {
		env.Jobs, env.WarmJobs = w.smokeJobs, 0
	}
	if env.LoadStart > float64(env.NProc)/2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-min load average %.2f exceeds nproc/2 = %.1f; timings will be noisy\n",
			env.LoadStart, float64(env.NProc)/2)
	}
	return &report{Env: env, Metrics: make(map[string]value)}
}

// measured runs one repetition between a forced GC and two MemStats
// readings, so repetitions do not inherit each other's garbage.
func measured(prep *prepared, n int, tr *tracer) (repResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := prep.run(n, tr)
	if err != nil {
		return repResult{}, err
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	return res, nil
}

// prepareTimed repeats set-up — once when repeat is false — and returns
// the last result with every duration.
func prepareTimed(w workloadSpec, seed int64, repeat bool) (*prepared, []float64, error) {
	var prep *prepared
	var secs []float64
	begin := time.Now()
	for {
		start := time.Now()
		p, err := w.prepare(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		prep = p
		enough := len(secs) >= minSetupReps && time.Since(begin) >= setupSpan
		if !repeat || enough || len(secs) == maxSetupReps {
			return prep, secs, nil
		}
	}
}

// runEndToEnd is the --trace 0 path.
func runEndToEnd(w workloadSpec, opt options) (*report, error) {
	rep := newReport(opt, w)
	prep, setupSecs, err := prepareTimed(w, opt.seed, true)
	if err != nil {
		return nil, err
	}
	n := rep.Env.Jobs
	if rep.Env.WarmJobs > 0 {
		if _, err := measured(prep, rep.Env.WarmJobs, nil); err != nil {
			return nil, fmt.Errorf("warm-up of %s: %w", w.name, err)
		}
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	var reps []repResult
	begin := time.Now()
	for {
		r, err := measured(prep, n, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d of %s: %w", len(reps)+1, w.name, err)
		}
		reps = append(reps, r)
		// Stop when another repetition of the same length would overrun; a
		// smoke run takes exactly two, enough to compare digests.
		done := time.Since(begin)+time.Duration(r.wallSec*float64(time.Second)) > budget
		if opt.smoke {
			done = len(reps) == 2
		}
		if done {
			break
		}
	}

	rep.Digest = reps[0].digest
	var thr, wall, allocs, kib []float64
	for _, r := range reps {
		rep.Attempted += r.attempted
		failed := r.failed
		if r.digest != rep.Digest {
			failed = r.attempted
		}
		rep.Failed += failed
		thr = append(thr, float64(r.jobs)/r.wallSec)
		wall = append(wall, r.wallSec)
		allocs = append(allocs, float64(r.mallocs)/float64(r.jobs))
		kib = append(kib, float64(r.allocBytes)/1024/float64(r.jobs))
	}
	rep.Correct = rep.Failed == 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sim := reps[0].sim
	rep.set("sim_jobs_per_wall_s", medianOf(thr, "jobs/s"))
	rep.set("wall_s", medianOf(wall, "s"))
	rep.WallSamples = wall
	rep.set("allocs_per_job", medianOf(allocs, "allocs/job"))
	rep.set("alloc_kib_per_job", medianOf(kib, "KiB/job"))
	rep.set("peak_sys_mib", counted(float64(ms.Sys)/(1<<20), "MiB", 1))
	rep.set("setup_s", medianOf(setupSecs, "s"))
	rep.set("sim_useful_work_pct", counted(100-sim.wastePct, "%", reps[0].attempted))
	rep.set("sim_accuracy_pct", counted(100-prep.accuracyLossPct, "%", accuracyRuns))
	return rep, nil
}

// emit prints the human-readable table, writes the full report beside the
// traces and ends standard output with the driver's one-line JSON.
func (r *report) emit(opt options) error {
	r.Env.LoadEnd = loadAverage()
	fmt.Printf("workload %s  seed %d  jobs/repetition %d  warm-up %d  git %s  %s  nproc %d  GOMAXPROCS %d  load %.2f→%.2f\n",
		r.Env.Workload, r.Env.Seed, r.Env.Jobs, r.Env.WarmJobs, r.Env.GitSHA, r.Env.GoVersion,
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.LoadStart, r.Env.LoadEnd)
	fmt.Printf("digest %s  correct %v  attempted %d  failed %d\n", r.Digest, r.Correct, r.Attempted, r.Failed)
	fmt.Printf("%-44s %16s %-10s %16s %16s %8s\n", "metric", "value", "unit", "min", "max", "n")
	for _, name := range r.order {
		v := r.Metrics[name]
		fmt.Printf("%-44s %16.6g %-10s %16.6g %16.6g %8d\n", name, v.Value, v.Unit, v.Min, v.Max, v.N)
	}
	kind := "result"
	if opt.trace {
		kind = "layers"
	}
	if err := writeJSON(fmt.Sprintf("%s/%s-%s.json", opt.outDir, kind, r.Env.Workload), r); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]lineValue, len(r.Metrics))}
	for name, v := range r.Metrics {
		line.Metrics[name] = lineValue{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// gitSHA reads the checkout's HEAD without spawning git; a checkout that
// is not a repository reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return short(ref)
	}
	sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return short(strings.TrimSpace(string(sha)))
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// loadAverage is the 1-minute load average, or -1 where the host does not
// expose it.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var one float64
	if _, err := fmt.Sscan(string(data), &one); err != nil {
		return -1
	}
	return one
}

func readPauseTotalNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

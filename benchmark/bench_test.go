package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
)

// steady lists the workloads with a run function cheap enough to repeat at
// N=300 in a unit test; figure-set costs 6 s per repetition at any size.
var steady = []string{"fed8-text", "stack-spine", "stack-evict", "stack-graph"}

func mustPrepare(t *testing.T, name string) (workloadSpec, *prepared) {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("workload %s is not defined", name)
	}
	prep, err := w.prepare(1)
	if err != nil {
		t.Fatalf("set-up of %s: %v", name, err)
	}
	return w, prep
}

// The digest is what every repetition of an invocation must reproduce:
// it has to be identical across two runs, and between the plain and the
// wrapped (traced) templates.
func TestDigestStableAndWrappersTransparent(t *testing.T) {
	for _, name := range steady {
		t.Run(name, func(t *testing.T) {
			w, prep := mustPrepare(t, name)
			first, err := prep.run(w.smokeJobs, nil)
			if err != nil {
				t.Fatal(err)
			}
			second, err := prep.run(w.smokeJobs, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := prep.run(w.smokeJobs, tr)
			if err != nil {
				t.Fatal(err)
			}
			if first.digest != second.digest {
				t.Errorf("two untraced runs disagree: %s vs %s", first.digest, second.digest)
			}
			if first.digest != traced.digest {
				t.Errorf("traced run disagrees with untraced: %s vs %s", traced.digest, first.digest)
			}
			if first.failed != 0 || traced.failed != 0 {
				t.Errorf("operations failed: untraced %d, traced %d", first.failed, traced.failed)
			}
			if tr.calls(spanNext) != uint64(w.smokeJobs) || tr.calls(spanAdd) != uint64(w.smokeJobs) {
				t.Errorf("traced %d arrivals and %d records, want %d of each",
					tr.calls(spanNext), tr.calls(spanAdd), w.smokeJobs)
			}
		})
	}
}

func TestEvictionConservesJobs(t *testing.T) {
	w, prep := mustPrepare(t, "stack-evict")
	res, err := prep.run(w.smokeJobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d of %d jobs have no record", res.failed, res.attempted)
	}
	if res.evictions == 0 || res.sim.wastePct <= 0 {
		t.Errorf("preemptive run evicted %d jobs and wasted %.2f%%; want both positive", res.evictions, res.sim.wastePct)
	}
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type declaration struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func checkMetrics(t *testing.T, kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
	t.Helper()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(declared) != len(defs) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program defines %d", kind, len(declared), len(defs))
	}
	for i, d := range declared {
		def := defs[i]
		if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
			t.Errorf("%s[%d]: declared %+v, program defines %+v", kind, i, d, def)
		}
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s[%d]: name %q or unit %q is outside the allowed alphabet", kind, i, d.Name, d.Unit)
		}
		if bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("%s[%d]: %s needs a bound in (0, 0.25]", kind, i, d.Name)
		}
	}
}

func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program defines %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program defines %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkMetrics(t, "end_to_end", d.EndToEnd, endToEndMetrics, true)
	checkMetrics(t, "per_layer", d.PerLayer, layerMetrics, false)
}

func sameNames(t *testing.T, what string, got map[string]value, want []metricDef) {
	t.Helper()
	var gotNames, wantNames []string
	for name, v := range got {
		gotNames = append(gotNames, name)
		for _, def := range want {
			if def.name == name && def.unit != v.Unit {
				t.Errorf("%s: %s emitted with unit %q, declared %q", what, name, v.Unit, def.unit)
			}
		}
	}
	for _, def := range want {
		wantNames = append(wantNames, def.name)
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
		t.Errorf("%s: emitted metrics\n%v\ndeclared\n%v", what, gotNames, wantNames)
	}
}

// Every declared metric is emitted by a -smoke run and nothing else is.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	names := steady
	if !testing.Short() {
		names = append(append([]string(nil), steady...), "figure-set")
	}
	opt := options{seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()}
	for _, name := range names {
		w, _ := lookupWorkload(name)
		rep, err := runEndToEnd(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", name, rep.Correct, rep.Attempted, rep.Failed)
		}
		sameNames(t, name, rep.Metrics, endToEndMetrics)
		for metric, v := range rep.Metrics {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, metric)
			}
		}
	}
	opt.trace = true
	w, _ := lookupWorkload("stack-graph")
	rep, err := runTraced(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced stack-graph: digest differs from the untraced repetition")
	}
	sameNames(t, "traced stack-graph", rep.Metrics, layerMetrics)
	if _, err := os.Stat(opt.outDir + "/trace-stack-graph.json"); err != nil {
		t.Errorf("traced run wrote no trace file: %v", err)
	}
}

// The generator's output is pinned, so two processes (go test -count=2)
// cannot disagree without disagreeing with this constant.
func TestBarabasiAlbertIsDeterministic(t *testing.T) {
	const golden = "4b56b30264a351f309834b3bc19e14970cb551b2d9f714e346d8ae41d967b4b4"
	edges, err := barabasiAlbert(rand.New(rand.NewSource(1)), graphNodes, graphEdgesPerN)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	seen := make(map[[2]int64]bool, len(edges))
	for _, e := range edges {
		fmt.Fprintf(h, "%d,%d;", e.U, e.V)
		c := e.Canonical()
		if e.U == e.V || seen[[2]int64{c.U, c.V}] {
			t.Fatalf("edge %v is a self-loop or a duplicate", e)
		}
		seen[[2]int64{c.U, c.V}] = true
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Errorf("edge list digest %s, want %s", got, golden)
	}
	if want := 6 + (graphNodes-4)*graphEdgesPerN; len(edges) != want {
		t.Errorf("%d edges, want %d", len(edges), want)
	}
}

package experiments

// Every paper figure self-registers here. Registration order is the
// "-fig all" run order; keep new drivers at the end unless they belong to
// an existing group.

import (
	"fmt"

	"dias/internal/metrics"
)

// comp flattens a comparison figure into its scenario results.
func comp(f *ComparisonFigure) []metrics.ScenarioResult {
	return append([]metrics.ScenarioResult{f.Baseline}, f.Others...)
}

// relabel suffixes scenario names so drivers that bundle several
// sub-figures (8's variants, 11's budgets, the extension sets) stay unique
// by name in the benchmark report.
func relabel(suffix string, rs []metrics.ScenarioResult) []metrics.ScenarioResult {
	out := make([]metrics.ScenarioResult, len(rs))
	for i, s := range rs {
		s.Name += suffix
		out[i] = s
	}
	return out
}

// plainDriver adapts a figure without a scenario grid to DriverFunc.
func plainDriver[T fmt.Stringer](fn func(Scale) (T, error)) DriverFunc {
	return func(sc Scale) (DriverOutput, error) {
		r, err := fn(sc)
		return DriverOutput{Text: r}, err
	}
}

// compDriver adapts a plain comparison figure to DriverFunc.
func compDriver(fn func(Scale) (*ComparisonFigure, error)) DriverFunc {
	return func(sc Scale) (DriverOutput, error) {
		r, err := fn(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		return DriverOutput{Text: r, Scenarios: comp(r)}, nil
	}
}

// gridDriver adapts a figure that lists its own scenario rows to
// DriverFunc.
func gridDriver[T interface {
	fmt.Stringer
	Scenarios() []metrics.ScenarioResult
}](fn func(Scale) (T, error)) DriverFunc {
	return func(sc Scale) (DriverOutput, error) {
		r, err := fn(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		return DriverOutput{Text: r, Scenarios: r.Scenarios()}, nil
	}
}

// capJobs bounds the arrivals of one sub-run inside a bundled driver.
func capJobs(sc Scale, max int) Scale {
	if sc.Jobs > max {
		sc.Jobs = max
	}
	return sc
}

// textString adapts a plain string to fmt.Stringer.
type textString string

func (s textString) String() string { return string(s) }

// multiText concatenates several rendered results.
type multiText []fmt.Stringer

func (m multiText) String() string {
	out := ""
	for i, s := range m {
		if i > 0 {
			out += "\n"
		}
		out += s.String()
	}
	return out
}

// Arrival caps for the heavier figures: graph-analytics jobs are ~10x
// heavier per arrival, the federation and fault grids run dozens of
// whole-cluster simulations per figure, and the overload sweep runs 19.
const (
	graphMaxJobs    = 300
	fedExpMaxJobs   = 250
	faultMaxJobs    = 300
	overloadMaxJobs = 240
)

func init() {
	Register("motivation", DriverMeta{
		Description: "slowdown ratio and eviction waste under P across system loads (§2.1 motivation)",
	}, plainDriver(Motivation))
	Register("4", DriverMeta{
		Description: "phase-type service-time fits vs profiled task durations (model validation)",
	}, plainDriver(Figure4))
	Register("5", DriverMeta{
		Description: "mean response time vs drop ratio, priority-queue model vs observed (model validation)",
	}, plainDriver(Figure5))
	Register("6", DriverMeta{
		Description: "accuracy loss vs drop ratio on the profiled curve (model validation)",
	}, plainDriver(Figure6))
	Register("7", DriverMeta{
		Description: "two-priority text latency: P vs NP vs DA(0,10) vs DA(0,20)",
	}, compDriver(Figure7))
	Register("8", DriverMeta{
		Description: "figure 7 under equal sizes, more-high mix and half load",
	}, func(sc Scale) (DriverOutput, error) {
		var out multiText
		var scens []metrics.ScenarioResult
		for _, v := range []Figure8Variant{Figure8EqualSizes, Figure8MoreHigh, Figure8HalfLoad} {
			r, err := Figure8(v, sc)
			if err != nil {
				return DriverOutput{}, err
			}
			out = append(out, r)
			scens = append(scens, relabel("-"+string(v), comp(r))...)
		}
		return DriverOutput{Text: out, Scenarios: scens}, nil
	})
	Register("9", DriverMeta{
		Description: "three-priority text system: P vs NP vs DA(0,10,20) vs DA(0,20,40)",
	}, compDriver(Figure9))
	Register("10", DriverMeta{
		Description: "triangle-count latency grid (graph analytics)",
		MaxJobs:     graphMaxJobs,
	}, compDriver(Figure10))
	Register("11", DriverMeta{
		Description: "sprinting budgets: limited vs unlimited DVFS grid",
		MaxJobs:     graphMaxJobs,
	}, func(sc Scale) (DriverOutput, error) {
		r, err := Figure11(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		scens := append([]metrics.ScenarioResult{r.Limited.Baseline, r.NPS},
			relabel("-limited", r.Limited.Others)...)
		scens = append(scens, relabel("-unlimited", r.Unlimited.Others)...)
		return DriverOutput{Text: r, Scenarios: scens}, nil
	})
	Register("table2", DriverMeta{
		Description: "queue/execution decomposition under limited sprinting (duplicates figure 11's run)",
		MaxJobs:     graphMaxJobs,
		SkipInAll:   true,
	}, func(sc Scale) (DriverOutput, error) {
		r, err := Figure11(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		return DriverOutput{Text: textString(r.Table2())}, nil
	})
	Register("ablations", DriverMeta{
		Description: "sprint-timeout, model-level, drop-timing and eviction-resume ablations",
	}, func(sc Scale) (DriverOutput, error) {
		var out multiText
		var scens []metrics.ScenarioResult
		st, err := AblationSprintTimeout(capJobs(sc, graphMaxJobs))
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, st)
		scens = append(scens, comp(st)...)
		ml, err := AblationModelLevel(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, ml)
		dt, err := AblationDropTiming(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, textString(fmt.Sprintf(
			"Ablation: early drop timing\n  full exec %.1fs, theta=0.5 exec %.1fs (%.0f%% saved)\n",
			dt.FullExecSec, dt.DroppedExecSec, 100*(1-dt.DroppedExecSec/dt.FullExecSec))))
		er, err := AblationEvictionResume(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, textString(fmt.Sprintf(
			"Ablation: preemptive-repeat eviction\n  resource waste %.1f%% of machine time\n",
			er.ResourceWastePct)))
		scens = append(scens, er)
		return DriverOutput{Text: out, Scenarios: scens}, nil
	})
	Register("faults", DriverMeta{
		Description: "node churn, task faults and stragglers vs the clean run",
		MaxJobs:     faultMaxJobs,
	}, gridDriver(FaultTolerance))
	Register("elasticity", DriverMeta{
		Description: "autoscaler policies: latency vs powered-node energy",
		MaxJobs:     faultMaxJobs,
	}, gridDriver(Elasticity))
	Register("federation-outage", DriverMeta{
		Description: "whole-cluster outage under each routing policy",
		MaxJobs:     fedExpMaxJobs,
	}, gridDriver(FederationOutage))
	Register("federation-scaleout", DriverMeta{
		Description: "1..N homogeneous clusters under each routing policy",
		MaxJobs:     fedExpMaxJobs,
	}, gridDriver(FederationScaleOut))
	Register("federation-hetero", DriverMeta{
		Description: "heterogeneous member sizes under each routing policy",
		MaxJobs:     fedExpMaxJobs,
	}, gridDriver(FederationHeterogeneous))
	Register("extensions", DriverMeta{
		Description: "bursty arrivals, variable sizes, failures and adaptive deflation",
	}, func(sc Scale) (DriverOutput, error) {
		var out multiText
		var scens []metrics.ScenarioResult
		b, err := ExtensionBursty(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, b)
		scens = append(scens, relabel("-poisson", comp(b.Poisson))...)
		scens = append(scens, relabel("-bursty", comp(b.Bursty))...)
		v, err := ExtensionVariableSizes(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, v)
		scens = append(scens, relabel("-varsize", comp(v))...)
		f, err := ExtensionFailures(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, f)
		scens = append(scens, relabel("-failures", comp(f))...)
		a, err := ExtensionAdaptive(sc)
		if err != nil {
			return DriverOutput{}, err
		}
		out = append(out, a)
		return DriverOutput{Text: out, Scenarios: scens}, nil
	})
	Register("overload", DriverMeta{
		Description: "offered load 0.5x-3x under each admission policy, goodput vs rejected work",
		MaxJobs:     overloadMaxJobs,
	}, gridDriver(Overload))
	Register("scale", DriverMeta{
		Description: "streaming throughput: arrival process x job count x routing, 8 clusters, bounded memory",
	}, gridDriver(ScaleThroughput))
}

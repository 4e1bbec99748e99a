package hypotheses

import (
	"fmt"

	"dias/internal/experiments"
	"dias/internal/faults"
	"dias/internal/metrics"
)

// countOutcomes sums a run's post-warmup outcomes (completed, failed,
// rejected) for the conservation invariant.
func countOutcomes(r metrics.ScenarioResult) int {
	total := 0
	for _, cs := range r.PerClass {
		total += cs.Jobs + cs.FailedJobs + cs.RejectedJobs
	}
	return total
}

// H3: as node churn intensifies (MTTF drops), retry re-execution should
// compound with queueing — each retry occupies capacity that delays other
// jobs, whose own retries delay more — so mean response inflation should
// grow faster than the churn rate itself (superlinearly in 1/MTTF).
func H3() Spec {
	const mttrSec = 90.0
	type churnCell struct {
		name    string
		mttfSec float64
	}
	axis := []churnCell{
		{"mttf-3600", 3600},
		{"mttf-1200", 1200},
		{"mttf-400", 400},
	}
	cells := make([]Cell, len(axis))
	for i, c := range axis {
		c := c
		cells[i] = Cell{
			Name: c.name,
			Detail: fmt.Sprintf("node churn MTTF %gs, MTTR %gs; paired healthy baseline, same seed and workload",
				c.mttfSec, mttrSec),
			Run: func(seed int64, jobs int) (CellResult, error) {
				w, err := experiments.NewReferenceWorkload(seed)
				if err != nil {
					return CellResult{}, err
				}
				healthy, err := w.RunStackCell(experiments.StackCell{
					Name: c.name + "-healthy", Jobs: jobs, LoadFactor: 0.7,
				})
				if err != nil {
					return CellResult{}, err
				}
				churned, err := w.RunStackCell(experiments.StackCell{
					Name: c.name, Jobs: jobs, LoadFactor: 0.7,
					Faults: &faults.Config{
						Churn: &faults.ChurnConfig{MTTFSec: c.mttfSec, MTTRSec: mttrSec},
					},
				})
				if err != nil {
					return CellResult{}, err
				}
				excess := 0.0
				if h := healthy.PerClass[0].MeanResponseSec; h > 0 {
					excess = 100 * (churned.PerClass[0].MeanResponseSec/h - 1)
				}
				// Normalize by churn rate (∝ 1/MTTF): linear amplification
				// keeps this constant along the axis, superlinear growth
				// makes it rise as MTTF drops.
				perChurn := excess * c.mttfSec / 3600
				skip := int(0.1 * float64(jobs))
				gap := float64(jobs-skip) - float64(countOutcomes(churned))
				return CellResult{
					Scenario: churned,
					Values: map[string]float64{
						"mean-low-excess-pct": excess,
						"excess-per-churn":    perChurn,
						"retries":             float64(churned.TasksRetried),
						"conservation-gap":    gap,
					},
				}, nil
			},
		}
	}
	return Spec{
		ID:     "h3-churn-retry-amplification",
		Title:  "Node churn amplifies mean response superlinearly as MTTF drops",
		Family: "faults",
		Claim: "Tripling and then further tripling the node-churn rate (MTTF 3600s → 1200s → 400s, " +
			"MTTR 90s) inflates low-class mean response superlinearly: the inflation per unit of " +
			"churn rate grows as MTTF drops, because retry re-execution steals capacity and " +
			"compounds with queueing. Job conservation must hold in every cell.",
		Varied: "node-churn MTTF (3600s → 1200s → 400s) at fixed MTTR and load",
		Controlled: []string{
			"single default cluster, DiAS policy (DA(0,20) + sprinting), 70% nominal load",
			"two-class reference text workload; paired healthy baseline per cell, same seed",
			"MTTR fixed at 90s; only the failure rate varies",
		},
		Seeds: []int64{42, 123, 456},
		Jobs:  240,
		Metrics: []Metric{
			{Name: "mean-low-excess-pct", Unit: "%", Desc: "low-class mean response inflation over the paired healthy run"},
			{Name: "excess-per-churn", Unit: "%·(MTTF/3600)", Desc: "inflation normalized by churn rate; constant = linear, rising = superlinear"},
			{Name: "retries", Unit: "tasks", Desc: "failure-aborted task attempts re-executed"},
			{Name: "conservation-gap", Unit: "jobs", Desc: "post-warmup arrivals minus (completed + failed + rejected); 0 = no job lost or double-counted"},
		},
		Cells: cells,
		Primary: []Check{
			Dominance{
				Metric:   "excess-per-churn",
				Superior: "mttf-1200", Inferior: "mttf-3600",
			},
			Dominance{
				Metric:   "excess-per-churn",
				Superior: "mttf-400", Inferior: "mttf-1200",
			},
			Invariant{Metric: "conservation-gap", Min: 0, Max: 0},
		},
		Notes: "Superlinearity is judged on the normalized excess-per-churn chain: each step down " +
			"in MTTF must raise inflation-per-unit-churn in every seed, which a linear model " +
			"cannot do. The evidence shows the opposite monotonic trend — inflation per unit of " +
			"churn falls as churn intensifies — so amplification at 70% load is sublinear: the " +
			"30% capacity headroom absorbs retry re-execution, and concurrent outages " +
			"increasingly overlap the same queueing delay instead of compounding it.",
	}
}

// All returns every seeded hypothesis, in presentation order.
func All() []Spec {
	return []Spec{H1(), H2(), H3(), H4(), H5()}
}

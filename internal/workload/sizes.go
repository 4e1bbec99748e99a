package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dias/internal/engine"
	"dias/internal/model"
)

// The §4 models treat the number of map/reduce tasks of a priority-k job as
// a random variable with PMF pm(t). This file provides task-count samplers
// whose exact PMFs plug into model.TaskCountPMF, size distributions for the
// byte-volume knob, and job sources that build per-arrival job variants.

// --- Task-count samplers ---------------------------------------------------

// TaskCountDist draws integer task counts and exposes its exact PMF, tying
// the generated workload to the model's pm(t)/pr(u) inputs.
type TaskCountDist interface {
	// Sample draws one task count (>= 1).
	Sample(rng *rand.Rand) int
	// PMF returns the exact distribution (entry i = P(i+1 tasks)).
	PMF() model.TaskCountPMF
	// Max returns the largest possible count (N^k in Table 1).
	Max() int
}

// FixedCount always yields n tasks.
type FixedCount int

// Sample returns n.
func (f FixedCount) Sample(_ *rand.Rand) int { return int(f) }

// PMF is the degenerate distribution at n.
func (f FixedCount) PMF() model.TaskCountPMF { return model.FixedTasks(int(f)) }

// Max returns n.
func (f FixedCount) Max() int { return int(f) }

// UniformCount draws uniformly from {Lo, ..., Hi}.
type UniformCount struct {
	Lo, Hi int
}

// NewUniformCount validates the bounds.
func NewUniformCount(lo, hi int) (UniformCount, error) {
	if lo < 1 || hi < lo {
		return UniformCount{}, fmt.Errorf("workload: uniform count bounds [%d,%d]", lo, hi)
	}
	return UniformCount{Lo: lo, Hi: hi}, nil
}

// Sample draws one count.
func (u UniformCount) Sample(rng *rand.Rand) int {
	return u.Lo + rng.Intn(u.Hi-u.Lo+1)
}

// PMF spreads mass evenly over [Lo, Hi].
func (u UniformCount) PMF() model.TaskCountPMF {
	p := make(model.TaskCountPMF, u.Hi)
	w := 1 / float64(u.Hi-u.Lo+1)
	for t := u.Lo; t <= u.Hi; t++ {
		p[t-1] = w
	}
	return p
}

// Max returns Hi.
func (u UniformCount) Max() int { return u.Hi }

// EmpiricalCount resamples from observed task counts (e.g. profiled from a
// production trace), with the exact empirical PMF.
type EmpiricalCount struct {
	counts []int
	pmf    model.TaskCountPMF
}

// NewEmpiricalCount builds the sampler from observations (each >= 1).
func NewEmpiricalCount(observed []int) (*EmpiricalCount, error) {
	if len(observed) == 0 {
		return nil, errors.New("workload: no observed task counts")
	}
	maxN := 0
	for i, c := range observed {
		if c < 1 {
			return nil, fmt.Errorf("workload: observation %d has %d tasks", i, c)
		}
		if c > maxN {
			maxN = c
		}
	}
	pmf := make(model.TaskCountPMF, maxN)
	for _, c := range observed {
		pmf[c-1] += 1 / float64(len(observed))
	}
	cp := make([]int, len(observed))
	copy(cp, observed)
	return &EmpiricalCount{counts: cp, pmf: pmf}, nil
}

// Sample resamples one observation.
func (e *EmpiricalCount) Sample(rng *rand.Rand) int {
	return e.counts[rng.Intn(len(e.counts))]
}

// PMF returns the empirical distribution.
func (e *EmpiricalCount) PMF() model.TaskCountPMF {
	out := make(model.TaskCountPMF, len(e.pmf))
	copy(out, e.pmf)
	return out
}

// Max returns the largest observed count.
func (e *EmpiricalCount) Max() int { return len(e.pmf) }

// --- Size distributions -----------------------------------------------------

// SizeDist draws positive job sizes (bytes, or any positive scalar knob).
type SizeDist interface {
	Sample(rng *rand.Rand) float64
	Mean() float64
}

// FixedSize always yields the same size.
type FixedSize float64

// Sample returns the fixed size.
func (f FixedSize) Sample(_ *rand.Rand) float64 { return float64(f) }

// Mean returns the fixed size.
func (f FixedSize) Mean() float64 { return float64(f) }

// UniformSize draws uniformly from [Lo, Hi].
type UniformSize struct {
	Lo, Hi float64
}

// NewUniformSize validates the bounds.
func NewUniformSize(lo, hi float64) (UniformSize, error) {
	if lo <= 0 || hi < lo {
		return UniformSize{}, fmt.Errorf("workload: uniform size bounds [%g,%g]", lo, hi)
	}
	return UniformSize{Lo: lo, Hi: hi}, nil
}

// Sample draws one size.
func (u UniformSize) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// Mean returns (Lo+Hi)/2.
func (u UniformSize) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// LognormalSize draws log-normally distributed sizes — the heavy-tailed
// shape production job-size traces exhibit. Mu and Sigma parameterize the
// underlying normal (of the natural log).
type LognormalSize struct {
	Mu, Sigma float64
}

// LognormalFromMeanCV builds the lognormal matching a target mean and
// coefficient of variation (std/mean), the two numbers trace studies
// usually report.
func LognormalFromMeanCV(mean, cv float64) (LognormalSize, error) {
	if mean <= 0 || cv <= 0 {
		return LognormalSize{}, fmt.Errorf("workload: lognormal mean %g cv %g", mean, cv)
	}
	sigma2 := math.Log(1 + cv*cv)
	return LognormalSize{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}, nil
}

// Sample draws one size.
func (l LognormalSize) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns exp(mu + sigma^2/2).
func (l LognormalSize) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// EmpiricalSize resamples from observed sizes.
type EmpiricalSize struct {
	samples []float64
	mean    float64
}

// NewEmpiricalSize builds the sampler from positive observations.
func NewEmpiricalSize(observed []float64) (*EmpiricalSize, error) {
	if len(observed) == 0 {
		return nil, errors.New("workload: no observed sizes")
	}
	var sum float64
	for i, s := range observed {
		if s <= 0 {
			return nil, fmt.Errorf("workload: observation %d has size %g", i, s)
		}
		sum += s
	}
	cp := make([]float64, len(observed))
	copy(cp, observed)
	return &EmpiricalSize{samples: cp, mean: sum / float64(len(observed))}, nil
}

// Sample resamples one observation.
func (e *EmpiricalSize) Sample(rng *rand.Rand) float64 {
	return e.samples[rng.Intn(len(e.samples))]
}

// Mean returns the sample mean.
func (e *EmpiricalSize) Mean() float64 { return e.mean }

// --- Job sources ------------------------------------------------------------

// SubJob shallow-clones a job truncated to the first tasks input
// partitions, with SizeBytes scaled proportionally — the mechanism for
// realising a sampled task count t from a full-size template (stage 0 then
// spawns t tasks). The clone shares the base's Stages array, and with it
// the engine's stage memo: the kept partitions are the base's own, so each
// is computed once however many truncations run.
func SubJob(base *engine.Job, tasks int) (*engine.Job, error) {
	if base == nil {
		return nil, errors.New("workload: nil base job")
	}
	if tasks < 1 || tasks > len(base.Input) {
		return nil, fmt.Errorf("workload: %d tasks out of [1,%d]", tasks, len(base.Input))
	}
	clone := *base
	clone.Input = base.Input[:tasks]
	clone.SizeBytes = int64(float64(base.SizeBytes) * float64(tasks) / float64(len(base.Input)))
	return &clone, nil
}

// JobSource produces the job instance for each arrival of a class. It lets
// scenarios move beyond one fixed template per class: sizes and task counts
// can vary per arrival, matching the random nkm of §4.
type JobSource interface {
	Job(rng *rand.Rand, class int) (*engine.Job, error)
	// Classes returns the number of classes the source serves.
	Classes() int
}

// FixedJobs serves one immutable template per class (the Figure 7-11
// setting).
type FixedJobs []*engine.Job

// Job returns the class template.
func (f FixedJobs) Job(_ *rand.Rand, class int) (*engine.Job, error) {
	if class < 0 || class >= len(f) {
		return nil, fmt.Errorf("workload: class %d out of range %d", class, len(f))
	}
	if f[class] == nil {
		return nil, fmt.Errorf("workload: class %d has no template", class)
	}
	return f[class], nil
}

// Classes returns the template count.
func (f FixedJobs) Classes() int { return len(f) }

// VariableJobs samples a task count per arrival and truncates the class
// template accordingly, realising the paper's variable job sizes.
type VariableJobs struct {
	templates []*engine.Job
	counts    []TaskCountDist
}

// NewVariableJobs pairs per-class templates with task-count distributions.
// Each distribution's Max must not exceed its template's partition count.
func NewVariableJobs(templates []*engine.Job, counts []TaskCountDist) (*VariableJobs, error) {
	if len(templates) == 0 || len(templates) != len(counts) {
		return nil, fmt.Errorf("workload: %d templates vs %d count distributions", len(templates), len(counts))
	}
	for k, tpl := range templates {
		if tpl == nil || counts[k] == nil {
			return nil, fmt.Errorf("workload: class %d missing template or distribution", k)
		}
		if counts[k].Max() > len(tpl.Input) {
			return nil, fmt.Errorf("workload: class %d can draw %d tasks but template has %d partitions",
				k, counts[k].Max(), len(tpl.Input))
		}
	}
	return &VariableJobs{templates: templates, counts: counts}, nil
}

// Job samples a variant for one arrival.
func (v *VariableJobs) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	if class < 0 || class >= len(v.templates) {
		return nil, fmt.Errorf("workload: class %d out of range %d", class, len(v.templates))
	}
	return SubJob(v.templates[class], v.counts[class].Sample(rng))
}

// Classes returns the number of classes.
func (v *VariableJobs) Classes() int { return len(v.templates) }

// PMF exposes the class's exact task-count distribution for the model.
func (v *VariableJobs) PMF(class int) (model.TaskCountPMF, error) {
	if class < 0 || class >= len(v.counts) {
		return nil, fmt.Errorf("workload: class %d out of range %d", class, len(v.counts))
	}
	return v.counts[class].PMF(), nil
}

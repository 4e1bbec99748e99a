package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"dias/internal/engine"
	"dias/internal/model"
)

// The §4 models treat the number of map/reduce tasks of a priority-k job as
// a random variable with PMF pm(t). This file provides task-count samplers
// whose exact PMFs plug into model.TaskCountPMF, and job sources that build
// per-arrival job variants.

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

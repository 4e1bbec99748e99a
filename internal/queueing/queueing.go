// Package queueing models the paper's cluster as a single-server
// multi-priority queue (§4): jobs of K classes arrive in Poisson streams
// (the marked-MMAP special case) and are served one at a time, since each
// DiAS job seizes the whole cluster partition.
//
// Two evaluation paths are provided:
//
//   - exact mean waiting/response times for M[K]/G[K]/1 priority queues
//     under non-preemptive and preemptive-resume scheduling, driven by the
//     first two moments of the (phase-type) service times; and
//   - an event-driven simulator that yields full response-time
//     distributions (tails) and also covers the preemptive-repeat
//     discipline the paper's eviction baseline uses, where evicted work is
//     lost and re-executed.
//
// This pair substitutes for Horváth's MMAP[K]/PH[K]/1 solver [22]: the
// paper uses the model for mean response times and for ranking drop
// ratios, which the exact means support; tails come from simulation.
// Higher class index means higher priority, as in the paper.
package queueing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dias/internal/phdist"
	"dias/internal/ring"
	"dias/internal/stats"
)

// Discipline selects how higher-priority arrivals treat the job in service.
type Discipline int

const (
	// NonPreemptive lets the job in service finish (the paper's NP and the
	// execution mode of DiAS).
	NonPreemptive Discipline = iota + 1
	// PreemptiveResume suspends the job in service and later continues it
	// from where it stopped.
	PreemptiveResume
	// PreemptiveRepeat evicts the job in service back to the head of its
	// queue; all its progress is lost and it is re-executed from scratch
	// (the paper's P baseline, the source of resource waste).
	PreemptiveRepeat
)

// String returns the paper's shorthand for the discipline.
func (d Discipline) String() string {
	switch d {
	case NonPreemptive:
		return "NP"
	case PreemptiveResume:
		return "P-resume"
	case PreemptiveRepeat:
		return "P"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Class describes one priority class. Index in a slice is the class id;
// higher index = higher priority.
type Class struct {
	// Rate is the Poisson arrival rate (jobs/second).
	Rate float64
	// MeanService and M2Service are the first two raw moments of the
	// service time, driving the exact formulas.
	MeanService float64
	M2Service   float64
	// Sampler draws one service time for simulation. Required by Simulate;
	// ignored by the exact formulas.
	Sampler func(*rand.Rand) float64
}

// FromPH builds a Class from an arrival rate and a phase-type service
// distribution, wiring both the moments and the sampler.
func FromPH(rate float64, ph *phdist.PH) (Class, error) {
	if !(rate >= 0 && rate <= math.MaxFloat64) {
		return Class{}, fmt.Errorf("queueing: rate %g negative or not finite", rate)
	}
	ms, err := ph.Moments(2)
	if err != nil {
		return Class{}, fmt.Errorf("service moments: %w", err)
	}
	return Class{
		Rate:        rate,
		MeanService: ms[0],
		M2Service:   ms[1],
		Sampler:     ph.Sample,
	}, nil
}

func validateClasses(classes []Class) error {
	if len(classes) == 0 {
		return errors.New("queueing: no classes")
	}
	for k, c := range classes {
		if !(c.Rate >= 0 && c.Rate <= math.MaxFloat64) {
			return fmt.Errorf("queueing: class %d rate %g", k, c.Rate)
		}
		if !(c.MeanService > 0 && c.MeanService <= math.MaxFloat64) {
			return fmt.Errorf("queueing: class %d mean service %g", k, c.MeanService)
		}
		if !(c.M2Service <= math.MaxFloat64) {
			return fmt.Errorf("queueing: class %d M2 %g not finite", k, c.M2Service)
		}
		if c.M2Service < c.MeanService*c.MeanService {
			return fmt.Errorf("queueing: class %d M2 %g below mean² %g",
				k, c.M2Service, c.MeanService*c.MeanService)
		}
	}
	return nil
}

// higherLoad returns Σ ρ_i over classes with strictly higher priority
// than k.
func higherLoad(classes []Class, k int) float64 {
	var rho float64
	for i := k + 1; i < len(classes); i++ {
		rho += float64(classes[i].Rate * classes[i].MeanService)
	}
	return rho
}

// MeanResponseTimes returns the exact mean response time per class for
// NonPreemptive or PreemptiveResume scheduling (classical M/G/1 priority
// results). Classes whose stability condition fails get +Inf.
// PreemptiveRepeat has no simple closed form; use Simulate.
func MeanResponseTimes(classes []Class, d Discipline) ([]float64, error) {
	if err := validateClasses(classes); err != nil {
		return nil, err
	}
	K := len(classes)
	out := make([]float64, K)
	switch d {
	case NonPreemptive:
		// Residual work from every class delays everyone.
		var w0 float64
		for _, c := range classes {
			w0 += float64(c.Rate * c.M2Service / 2)
		}
		for k := 0; k < K; k++ {
			h := higherLoad(classes, k)
			rhoK := float64(classes[k].Rate * classes[k].MeanService)
			if h+rhoK >= 1 {
				out[k] = math.Inf(1)
				continue
			}
			wait := w0 / ((1 - h) * (1 - h - rhoK))
			out[k] = wait + classes[k].MeanService
		}
	case PreemptiveResume:
		// Lower-priority work is invisible to class k.
		for k := 0; k < K; k++ {
			h := higherLoad(classes, k)
			rhoK := float64(classes[k].Rate * classes[k].MeanService)
			if h+rhoK >= 1 {
				out[k] = math.Inf(1)
				continue
			}
			var w0k float64
			for i := k; i < K; i++ {
				w0k += float64(classes[i].Rate * classes[i].M2Service / 2)
			}
			out[k] = classes[k].MeanService/(1-h) + w0k/((1-h)*(1-h-rhoK))
		}
	case PreemptiveRepeat:
		return nil, errors.New("queueing: no closed form for preemptive-repeat; use Simulate")
	default:
		return nil, fmt.Errorf("queueing: unknown discipline %d", d)
	}
	return out, nil
}

// SimResult aggregates per-class simulated response times plus server-side
// accounting.
type SimResult struct {
	// PerClass[k] holds response-time observations of class k (after
	// warmup).
	PerClass []*stats.Sample
	// Served counts jobs completed per class (after warmup).
	Served []int
	// Evictions counts preemptions that discarded work (repeat) or
	// suspended it (resume).
	Evictions int
	// WastedService is service time lost to preemptive-repeat evictions:
	// the paper's resource-waste numerator at queue level.
	WastedService float64
	// TotalService is service time spent on completed jobs.
	TotalService float64
	// Makespan is the simulated horizon.
	Makespan float64
}

// ResourceWastePct returns wasted service over total processing (the
// paper's resource-waste metric), in percent.
func (r *SimResult) ResourceWastePct() float64 {
	den := r.TotalService + r.WastedService
	if den <= 0 {
		return 0
	}
	return 100 * r.WastedService / den
}

// SimConfig controls a simulation run.
type SimConfig struct {
	// Jobs is the number of completions to observe (across classes).
	Jobs int
	// WarmupFraction of initial completions excluded from stats.
	WarmupFraction float64
	// Discipline selects the scheduling policy.
	Discipline Discipline
}

type simJob struct {
	class     int
	arrival   float64
	remaining float64 // remaining service requirement
	original  float64 // full service requirement of the current attempt
	started   bool    // has received any service (for resume)
}

// Simulate runs the event-driven single-server priority queue and returns
// per-class response-time samples.
func Simulate(rng *rand.Rand, classes []Class, cfg SimConfig) (*SimResult, error) {
	if err := validateClasses(classes); err != nil {
		return nil, err
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("queueing: %d jobs", cfg.Jobs)
	}
	if cfg.WarmupFraction < 0 || cfg.WarmupFraction >= 1 {
		return nil, fmt.Errorf("queueing: warmup fraction %g", cfg.WarmupFraction)
	}
	switch cfg.Discipline {
	case NonPreemptive, PreemptiveResume, PreemptiveRepeat:
	default:
		return nil, fmt.Errorf("queueing: unknown discipline %d", cfg.Discipline)
	}
	for k, c := range classes {
		if c.Sampler == nil && c.Rate > 0 {
			return nil, fmt.Errorf("queueing: class %d has no sampler", k)
		}
	}
	var totalRate float64
	for _, c := range classes {
		totalRate += c.Rate
	}
	if totalRate <= 0 {
		return nil, errors.New("queueing: zero total arrival rate")
	}

	K := len(classes)
	res := &SimResult{
		PerClass: make([]*stats.Sample, K),
		Served:   make([]int, K),
	}
	for k := range res.PerClass {
		res.PerClass[k] = &stats.Sample{}
	}
	warmup := int(float64(cfg.Jobs) * cfg.WarmupFraction)

	queues := make([]ring.Deque[*simJob], K)
	var clock float64
	var inService *simJob

	// Completed jobs are recycled: the simulator allocates O(peak queue
	// length) simJob structs rather than one per arrival.
	var freeJobs []*simJob
	newJob := func(class int, arrival float64) *simJob {
		var j *simJob
		if n := len(freeJobs); n > 0 {
			j = freeJobs[n-1]
			freeJobs[n-1] = nil
			freeJobs = freeJobs[:n-1]
			*j = simJob{}
		} else {
			j = &simJob{}
		}
		j.class, j.arrival = class, arrival
		j.original = classes[class].Sampler(rng)
		j.remaining = j.original
		return j
	}

	drawArrival := func() (float64, int) {
		gap := rng.ExpFloat64() / totalRate
		u := rng.Float64() * totalRate
		var cum float64
		for k, c := range classes {
			cum += c.Rate
			if u < cum {
				return gap, k
			}
		}
		return gap, K - 1
	}

	nextGap, nextClass := drawArrival()
	nextArrival := clock + nextGap

	// popHighest removes and returns the head of the highest non-empty queue.
	popHighest := func() *simJob {
		for k := K - 1; k >= 0; k-- {
			if queues[k].Len() > 0 {
				return queues[k].PopFront()
			}
		}
		return nil
	}

	served := 0
	for served < cfg.Jobs {
		if inService == nil {
			if j := popHighest(); j != nil {
				inService = j
			} else {
				// Idle: jump to the next arrival.
				clock = nextArrival
				j := newJob(nextClass, clock)
				queues[j.class].PushBack(j)
				nextGap, nextClass = drawArrival()
				nextArrival = clock + nextGap
				continue
			}
		}
		completion := clock + inService.remaining
		if nextArrival < completion {
			// Arrival first.
			elapsed := nextArrival - clock
			clock = nextArrival
			j := newJob(nextClass, clock)
			nextGap, nextClass = drawArrival()
			nextArrival = clock + nextGap

			if cfg.Discipline != NonPreemptive && j.class > inService.class {
				// Preempt: the running job returns to the head of its queue.
				victim := inService
				victim.remaining -= elapsed
				res.Evictions++
				switch cfg.Discipline {
				case PreemptiveResume:
					victim.started = true
				case PreemptiveRepeat:
					// Work done on this attempt is wasted; it restarts from
					// scratch (fresh attempt, identical requirement).
					res.WastedService += victim.original - victim.remaining
					victim.remaining = victim.original
				}
				queues[victim.class].PushFront(victim)
				// Under preemptive disciplines the job in service always has
				// the highest class present, so the preemptor runs at once.
				inService = j
				continue
			}
			inService.remaining -= elapsed
			queues[j.class].PushBack(j)
			continue
		}
		// Completion first.
		clock = completion
		res.TotalService += inService.original
		served++
		if served > warmup {
			res.PerClass[inService.class].Add(clock - inService.arrival)
			res.Served[inService.class]++
		}
		freeJobs = append(freeJobs, inService)
		inService = nil
	}
	res.Makespan = clock
	return res, nil
}

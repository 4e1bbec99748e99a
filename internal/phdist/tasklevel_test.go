package phdist_test

import (
	"math/rand"
	"testing"

	"dias/internal/model"
	"dias/internal/phdist"
)

// taskLevelDense assembles the §4.1 generator of c as model did when it
// wrote a dense phases×phases matrix: the initial vector, the order and
// the row-major cells, each transition added to its cell and subtracted
// from its row's diagonal in the order equation (1) lists them. It reads
// the phase layout [O]? M_N̄m..M_1 [S]? R_N̄r..R_1 off c alone.
func taskLevelDense(c model.TaskLevelConfig) ([]float64, int, []float64) {
	effective := func(p model.TaskCountPMF, theta float64) []float64 {
		out := make([]float64, len(p))
		for i, pr := range p {
			if pr != 0 {
				out[model.EffectiveTasks(i+1, theta)-1] += pr
			}
		}
		for len(out) > 0 && out[len(out)-1] == 0 {
			out = out[:len(out)-1]
		}
		return out
	}
	pm, pr := effective(c.MapTasks, c.ThetaMap), effective(c.ReduceTasks, c.ThetaReduce)
	nm, nr := len(pm), len(pr)
	n, mapBase := nm+nr, 0
	if c.MuSetup > 0 {
		n, mapBase = n+1, 1
	}
	redBase := mapBase + nm
	if c.MuShuffle > 0 {
		n, redBase = n+1, redBase+1
	}
	m := func(t int) int { return mapBase + nm - t }
	r := func(u int) int { return redBase + nr - u }
	par := func(t int) float64 { return float64(min(t, c.Slots)) }

	alpha, a := make([]float64, n), make([]float64, n*n)
	add := func(i, j int, rate float64) {
		a[i*n+j] += rate
		a[i*n+i] -= rate
	}
	if c.MuSetup > 0 {
		alpha[0] = 1
		for t := 1; t <= nm; t++ {
			if pm[t-1] > 0 {
				add(0, m(t), float64(c.MuSetup*pm[t-1]))
			}
		}
	} else {
		for t := 1; t <= nm; t++ {
			alpha[m(t)] = pm[t-1]
		}
	}
	for t := nm; t >= 2; t-- {
		add(m(t), m(t-1), float64(par(t)*c.MuMap))
	}
	if c.MuShuffle > 0 {
		add(m(1), redBase-1, c.MuMap)
		for u := 1; u <= nr; u++ {
			if pr[u-1] > 0 {
				add(redBase-1, r(u), float64(c.MuShuffle*pr[u-1]))
			}
		}
	} else {
		for u := 1; u <= nr; u++ {
			if pr[u-1] > 0 {
				add(m(1), r(u), float64(c.MuMap*pr[u-1]))
			}
		}
	}
	for u := nr; u >= 2; u-- {
		add(r(u), r(u-1), float64(par(u)*c.MuReduce))
	}
	a[r(1)*n+r(1)] -= c.MuReduce
	return alpha, n, a
}

// TestTaskLevelMatchesDenseAssembly holds the task-level model's sparse
// entries to the dense generator it used to write, bit for bit: alpha,
// diagonal and rows, over seeded configurations with and without setup
// and shuffle, slots below and at least the task counts, θ ∈ {0, 0.3},
// and task counts spread over several values.
func TestTaskLevelMatchesDenseAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pmf := func() model.TaskCountPMF {
		p := make(model.TaskCountPMF, 2+rng.Intn(11))
		var sum float64
		for i := range p {
			if i == len(p)-1 || rng.Intn(3) > 0 {
				p[i] = rng.Float64()
				sum += p[i]
			}
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	for trial := range 160 {
		c := model.TaskLevelConfig{
			MapTasks:    pmf(),
			ReduceTasks: pmf(),
			MuMap:       0.1 + 2*rng.Float64(),
			MuReduce:    0.1 + 2*rng.Float64(),
			ThetaMap:    []float64{0, 0.3}[trial%2],
			ThetaReduce: []float64{0, 0.3}[trial/2%2],
		}
		if trial/4%2 == 1 {
			c.MuSetup = 0.5 + 5*rng.Float64()
		}
		if trial/8%2 == 1 {
			c.MuShuffle = 0.5 + 5*rng.Float64()
		}
		c.Slots = 1 + rng.Intn(min(c.MapTasks.Max(), c.ReduceTasks.Max())-1) // below the task counts
		if trial/16%2 == 1 {
			c.Slots = max(c.MapTasks.Max(), c.ReduceTasks.Max()) + rng.Intn(4) // at least them
		}
		got, err := c.ProcessingTime()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := phdist.Dense(taskLevelDense(c))
		if err != nil {
			t.Fatalf("trial %d: dense assembly: %v", trial, err)
		}
		if err := phdist.Identical(got, want); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, c, err)
		}
	}
}

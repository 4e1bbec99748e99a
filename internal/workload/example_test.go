package workload_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dias/internal/trace"
	"dias/internal/workload"
)

// ExampleGamma compares gap clumping at equal mean rate: a CV-3.5 gamma
// renewal process delivers the same long-run rate as Poisson while
// packing arrivals into bursts — the largest gap dwarfs the Poisson
// one.
func ExampleGamma() {
	poisson, _ := workload.NewPoissonMix([]float64{9, 1})
	bursty, _ := workload.NewGamma([]float64{9, 1}, 3.5)
	maxGap := func(name string, p workload.Process) float64 {
		rng := rand.New(rand.NewSource(3))
		var sum, max float64
		const n = 50000
		for i := 0; i < n; i++ {
			gap, _ := p.Next(rng)
			sum += gap
			if gap > max {
				max = gap
			}
		}
		fmt.Printf("%s: mean gap %.2fs\n", name, sum/n)
		return max
	}
	pMax := maxGap("poisson", poisson)
	gMax := maxGap("gamma CV=3.5", bursty)
	fmt.Printf("burstiness: largest gamma gap is %.0fx the largest poisson gap\n", gMax/pMax)
	// Output:
	// poisson: mean gap 0.10s
	// gamma CV=3.5: mean gap 0.10s
	// burstiness: largest gamma gap is 6x the largest poisson gap
}

// ExampleMMPP shows the two-state chain in action: bursts at 4x the
// mean rate clump the arrivals (a gap CV above Poisson's 1), while the
// stationary mixture of calm and burst keeps the configured total rate.
func ExampleMMPP() {
	m, _ := workload.NewMMPP([]float64{9, 1}, 4, [2]float64{3, 0.6})
	rng := rand.New(rand.NewSource(1))
	const n = 500000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		gap, _ := m.Next(rng)
		sum += gap
		sumSq += gap * gap
	}
	mean := sum / n
	fmt.Printf("mean rate %.0f jobs/s, gap CV %.1f\n", 1/mean, math.Sqrt(sumSq/n-mean*mean)/mean)
	// Output:
	// mean rate 10 jobs/s, gap CV 1.7
}

// ExampleEmpiricalStream replays a streamed trace file as an arrival
// process without materializing it, cycling when the records run out.
func ExampleEmpiricalStream() {
	var buf bytes.Buffer
	sw, _ := trace.NewStreamWriter(&buf)
	for _, r := range []trace.Rec{
		{At: 5, Class: 0, SizeBytes: 1 << 20, Home: 0},
		{At: 8, Class: 1, SizeBytes: 2 << 20, Home: 1},
	} {
		sw.Write(r)
	}
	sw.Flush()

	es, _ := workload.NewEmpiricalStream(bytes.NewReader(buf.Bytes()))
	for i := 0; i < 4; i++ {
		gap, class := es.Next(nil) // deterministic: the RNG is ignored
		fmt.Printf("arrival %d: +%gs class %d\n", i, gap, class)
	}
	// Output:
	// arrival 0: +5s class 0
	// arrival 1: +3s class 1
	// arrival 2: +5s class 0
	// arrival 3: +3s class 1
}

// ExampleEmpiricalStream_synthesized drives the streaming replayer from
// a deterministic synthesized trace — the zero-RAM path a million-job
// run takes, at example scale.
func ExampleEmpiricalStream_synthesized() {
	var buf bytes.Buffer
	n, _ := trace.Synthesize(&buf, trace.SynthConfig{
		Jobs:  1000,
		Rates: []float64{9, 1}, // 9:1 low:high at 10 jobs/s
		Seed:  42,
	})
	es, _ := workload.NewEmpiricalStream(bytes.NewReader(buf.Bytes()))
	var t float64
	classes := make([]int, 2)
	for i := 0; i < n; i++ {
		gap, class := es.Next(nil)
		t += gap
		classes[class]++
	}
	fmt.Printf("%d arrivals over %.0fs (rate %.1f jobs/s), %d low / %d high\n",
		n, t, float64(n)/t, classes[0], classes[1])
	fmt.Printf("trace file: %d lines, no RAM per record\n",
		strings.Count(buf.String(), "\n"))
	// Output:
	// 1000 arrivals over 97s (rate 10.4 jobs/s), 894 low / 106 high
	// trace file: 1001 lines, no RAM per record
}

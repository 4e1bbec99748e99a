// Package workload synthesises the paper's inputs and arrival processes
// (§5.1): per-topic text corpora standing in for the StackExchange dumps,
// scale-free graphs standing in for the Google web graph, and the job
// streams that drive every experiment.
//
// # Arrival processes
//
// Every arrival process implements Process: Next(rng) returns the gap to
// the next arrival and its priority class. All processes are calibrated
// in per-class mean rates, so swapping one for another at the same rates
// changes only burstiness — the "equal mean load, different clumping"
// comparisons the routing and admission experiments depend on. The
// catalogue, from smoothest to most structured:
//
//   - PoissonMix: exponential gaps at the total rate, classes marked by
//     rate share (gap CV = 1, memoryless — the baseline).
//   - Gamma: renewal process with Gamma(1/CV², CV²/λ) gaps at a
//     configurable CV. Independent gaps, heavy-tailed clumping.
//   - MMPP: 2-state Markov-modulated Poisson process — calm and burst
//     episodes with mean-preserving rates; correlated burstiness.
//   - DiurnalMix: sinusoidally rate-modulated arrivals (day/night
//     cycles).
//   - Replay: materialized trace replay (exact, cycling).
//   - EmpiricalStream: streaming replay of a trace.StreamReader file —
//     one record in memory at a time, for million-job runs.
//
// docs/WORKLOADS.md derives the math and shows when to reach for which.
//
// Feed-forward injection (Inject) turns any Process into on-the-fly job
// submission on the simulation clock: only the next arrival is
// scheduled, so a million-job run holds O(1) arrival state instead of a
// materialized arrival slice.
//
// Everything is driven by caller-owned seeded RNGs, keeping experiments
// deterministic.
package workload

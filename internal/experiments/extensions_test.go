package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"dias/internal/metrics"
	"dias/internal/workload"
)

// extScale sizes the extension tests; -short drops the arrival count
// further for the CI fast lane.
func extScale() Scale {
	s := Scale{Jobs: 90, WarmupFraction: 0.1, Seed: 3}
	if testing.Short() {
		s.Jobs = 60
	}
	return s
}

func TestExtensionBurstyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bursty queueing needs the longer arrival stream")
	}
	res, err := ExtensionBursty(extScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []struct {
		name string
		f    *ComparisonFigure
	}{{"poisson", res.Poisson}, {"bursty", res.Bursty}} {
		comps := fig.f.Comparisons()
		if len(comps) != 2 {
			t.Fatalf("%s: %d comparisons, want 2 (NP, DA)", fig.name, len(comps))
		}
		da := comps[1]
		if !strings.HasPrefix(da.Name, "DA") {
			t.Fatalf("%s: second comparison is %q", fig.name, da.Name)
		}
		// DA must improve the low class (class 0) over preemptive P.
		if da.MeanDiffPct[0] >= 0 {
			t.Errorf("%s: DA low-priority mean diff %+.1f%%, want negative", fig.name, da.MeanDiffPct[0])
		}
	}
	// Burstiness with the same mean rates must not make P's low-priority
	// latency better than a 2x improvement of the Poisson case (sanity:
	// bursts pile up queues).
	pBase := res.Poisson.Baseline.PerClass[0].MeanResponseSec
	bBase := res.Bursty.Baseline.PerClass[0].MeanResponseSec
	if bBase < pBase/2 {
		t.Errorf("bursty P low mean %.1fs implausibly below Poisson %.1fs", bBase, pBase)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestExtensionVariableSizesShape(t *testing.T) {
	fig, err := ExtensionVariableSizes(extScale())
	if err != nil {
		t.Fatal(err)
	}
	comps := fig.Comparisons()
	if len(comps) != 3 {
		t.Fatalf("%d comparisons, want 3", len(comps))
	}
	da20 := comps[2]
	if da20.MeanDiffPct[0] >= 0 {
		t.Errorf("DA(0,20) low-priority mean diff %+.1f%%, want negative", da20.MeanDiffPct[0])
	}
	// The baseline still completes every non-warmup job.
	if fig.Baseline.PerClass[0].Jobs == 0 || fig.Baseline.PerClass[1].Jobs == 0 {
		t.Error("baseline classes missing completions")
	}
}

func TestAblationModelLevel(t *testing.T) {
	res, err := AblationModelLevel(extScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ObservedSec <= 0 || row.TaskLevelSec <= 0 || row.WaveLevelSec <= 0 {
			t.Fatalf("non-positive entry in %+v", row)
		}
	}
	// Both models decrease monotonically-ish with theta; check endpoints.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.WaveLevelSec >= first.WaveLevelSec {
		t.Errorf("wave model did not shrink with dropping: %.1f -> %.1f",
			first.WaveLevelSec, last.WaveLevelSec)
	}
	if res.WaveMAPE > 35 {
		t.Errorf("wave-level MAPE %.1f%% exceeds 35%%", res.WaveMAPE)
	}
	if res.TaskMAPE <= 0 || res.WaveMAPE <= 0 {
		t.Error("MAPEs not computed")
	}
	if !strings.Contains(res.String(), "MAPE") {
		t.Error("rendering lacks summary")
	}
}

func TestExtensionFailuresShape(t *testing.T) {
	fig, err := ExtensionFailures(extScale())
	if err != nil {
		t.Fatal(err)
	}
	comps := fig.Comparisons()
	if len(comps) != 3 {
		t.Fatalf("%d comparisons, want 3", len(comps))
	}
	// Every scenario completes all non-warmup jobs despite failures.
	for _, r := range append([]metrics.ScenarioResult{fig.Baseline}, fig.Others...) {
		for k, cs := range r.PerClass {
			if cs.Jobs == 0 {
				t.Errorf("%s class %d has no completions", r.Name, k)
			}
		}
	}
	// DA without faults still beats P without faults on the low class.
	da := comps[1]
	if da.MeanDiffPct[0] >= 0 {
		t.Errorf("DA low-priority mean diff %+.1f%%, want negative", da.MeanDiffPct[0])
	}
}

func TestExtensionAdaptiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full arrival stream for the controller to act")
	}
	sc := extScale()
	sc.Jobs = 120 // enough post-step jobs for the controller to act
	res, err := ExtensionAdaptive(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	np, da, ad := res.Rows[0], res.Rows[1], res.Rows[2]
	if res.ThetaDecisions == 0 {
		t.Fatal("controller made no decisions across the load step")
	}
	// The controller must drop less on average than static DA(0,20) (it
	// pays nothing during the calm phase)...
	if ad.MeanDrop >= da.MeanDrop {
		t.Errorf("adaptive mean drop %.3f not below static %.3f", ad.MeanDrop, da.MeanDrop)
	}
	if ad.MeanDrop == 0 {
		t.Error("adaptive never dropped despite the overload step")
	}
	// ...while improving low-priority latency over plain NP.
	if ad.LowMeanSec >= np.LowMeanSec {
		t.Errorf("adaptive low mean %.1fs not below NP %.1fs", ad.LowMeanSec, np.LowMeanSec)
	}
	if !strings.Contains(res.String(), "controller decisions") {
		t.Error("rendering lacks decision count")
	}
}

func TestBurstyProcessMatchesMeanRates(t *testing.T) {
	rates := []float64{0.9, 0.1}
	rng := rand.New(rand.NewSource(17))
	proc, err := burstyProcess(rates)
	if err != nil {
		t.Fatal(err)
	}
	arr := workload.StreamOf(proc, rng, 30000)
	gotRate := float64(len(arr)) / arr[len(arr)-1].At
	if gotRate < 0.9 || gotRate > 1.1 {
		t.Errorf("bursty total rate %.3f, want ~1.0", gotRate)
	}
	var high int
	for _, a := range arr {
		if a.Class == 1 {
			high++
		}
	}
	frac := float64(high) / float64(len(arr))
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("high-class fraction %.3f, want ~0.10", frac)
	}
}

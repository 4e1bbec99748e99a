package experiments

import (
	"strings"
	"testing"
)

// testScale keeps integration tests quick while still exercising queueing
// dynamics. Shape assertions are tolerant: they check signs and ordering,
// not magnitudes. Under -short the arrival count drops further so the CI
// fast lane finishes in seconds.
func testScale() Scale {
	s := Scale{Jobs: 120, WarmupFraction: 0.1, Seed: 3}
	if testing.Short() {
		s.Jobs = 60
	}
	return s
}

func TestScaleValidation(t *testing.T) {
	if err := (Scale{Jobs: 1}).validate(); err == nil {
		t.Fatal("tiny scale accepted")
	}
	if err := (Scale{Jobs: 100, WarmupFraction: 1}).validate(); err == nil {
		t.Fatal("warmup=1 accepted")
	}
	if err := QuickScale().validate(); err != nil {
		t.Fatal(err)
	}
	if err := FullScale().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4ModelTracksObserved(t *testing.T) {
	res, err := Figure4(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // 2 datasets x 5 drop ratios
		t.Fatalf("%d rows", len(res.Rows))
	}
	for ds, e := range res.MeanErrPct {
		if e > 25 {
			t.Fatalf("dataset %s mean model error %.1f%% too high\n%s", ds, e, res)
		}
	}
	// Processing time must decrease with theta for each dataset.
	byDS := map[string][]Figure4Row{}
	for _, r := range res.Rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rows := range byDS {
		if rows[0].ObservedSec <= rows[len(rows)-1].ObservedSec {
			t.Fatalf("dataset %s: observed time did not shrink with dropping\n%s", ds, res)
		}
		if rows[0].PredictedSec <= rows[len(rows)-1].PredictedSec {
			t.Fatalf("dataset %s: predicted time did not shrink with dropping\n%s", ds, res)
		}
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Fatal("String() missing title")
	}
}

func TestFigure5ModelFollowsResponseTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("queueing run")
	}
	res, err := Figure5(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper reports 18.7% mean error; small runs are noisier. Assert
	// the model stays in a sane band and follows the downward trend for
	// the low class.
	if res.MeanErrPct > 60 {
		t.Fatalf("mean error %.1f%% too high\n%s", res.MeanErrPct, res)
	}
	var lowObs, lowPred []float64
	for _, r := range res.Rows {
		if r.Class == "low" {
			lowObs = append(lowObs, r.ObservedSec)
			lowPred = append(lowPred, r.PredictedSec)
		}
	}
	if lowObs[0] <= lowObs[len(lowObs)-1] {
		t.Fatalf("observed low-class response did not fall with theta\n%s", res)
	}
	if lowPred[0] <= lowPred[len(lowPred)-1] {
		t.Fatalf("predicted low-class response did not fall with theta\n%s", res)
	}
}

func TestFigure6AccuracyCurve(t *testing.T) {
	res, err := Figure6(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Error grows with the drop ratio and is materially nonzero.
	prev := 0.0
	for _, r := range res.Rows {
		if r.MAPEPct <= 0 {
			t.Fatalf("theta %.1f: zero error\n%s", r.Theta, res)
		}
		if r.MAPEPct < prev-2 { // allow small sampling dips
			t.Fatalf("error curve not increasing at theta %.1f\n%s", r.Theta, res)
		}
		if r.MAPEPct > prev {
			prev = r.MAPEPct
		}
	}
	// θ=0.1 should sit in single digits to low tens, as in the paper.
	if first := res.Rows[0].MAPEPct; first < 1 || first > 30 {
		t.Fatalf("MAPE at 0.1 = %.1f%%, outside plausible band\n%s", first, res)
	}
}

func TestFigure7PaperShape(t *testing.T) {
	res, err := Figure7(testScale())
	if err != nil {
		t.Fatal(err)
	}
	const low, high = 0, 1
	// Under P, high priority is far faster than low.
	bl := res.Baseline.PerClass
	if bl[high].MeanResponseSec >= bl[low].MeanResponseSec {
		t.Fatalf("P: high (%.1fs) not faster than low (%.1fs)",
			bl[high].MeanResponseSec, bl[low].MeanResponseSec)
	}
	// P wastes resources; the non-preemptive policies don't.
	if res.Baseline.ResourceWastePct <= 0 {
		t.Fatalf("P waste = %.2f%%, want > 0", res.Baseline.ResourceWastePct)
	}
	cs := res.Comparisons()
	var np, da20 int = -1, -1
	for i, c := range cs {
		if c.Name == "NP" {
			np = i
		}
		if c.Name == "DA(0,20)" {
			da20 = i
		}
		if c.ResourceWastePct != 0 {
			t.Fatalf("%s waste = %.2f%%, want 0", c.Name, c.ResourceWastePct)
		}
	}
	if np < 0 || da20 < 0 {
		t.Fatalf("missing scenarios in %v", cs)
	}
	// NP: low improves, high degrades (the paper's ~+80%).
	if cs[np].MeanDiffPct[low] >= 0 {
		t.Fatalf("NP low mean diff = %+.1f%%, want negative\n%s", cs[np].MeanDiffPct[low], res)
	}
	if cs[np].MeanDiffPct[high] <= 0 {
		t.Fatalf("NP high mean diff = %+.1f%%, want positive\n%s", cs[np].MeanDiffPct[high], res)
	}
	// DA(0,20): low improves substantially more than NP, high degrades far
	// less than under NP.
	if cs[da20].MeanDiffPct[low] >= cs[np].MeanDiffPct[low] {
		t.Fatalf("DA(0,20) low (%.1f%%) not better than NP (%.1f%%)\n%s",
			cs[da20].MeanDiffPct[low], cs[np].MeanDiffPct[low], res)
	}
	if cs[da20].MeanDiffPct[high] >= cs[np].MeanDiffPct[high] {
		t.Fatalf("DA(0,20) high (%.1f%%) not better than NP high (%.1f%%)\n%s",
			cs[da20].MeanDiffPct[high], cs[np].MeanDiffPct[high], res)
	}
}

func TestFigure8Variants(t *testing.T) {
	if testing.Short() {
		t.Skip("three scenario sweeps")
	}
	for _, v := range []Figure8Variant{Figure8EqualSizes, Figure8MoreHigh, Figure8HalfLoad} {
		res, err := Figure8(v, testScale())
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(res.Others) != 3 {
			t.Fatalf("%s: %d scenarios", v, len(res.Others))
		}
	}
	if _, err := Figure8("bogus", testScale()); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestFigure8HalfLoadPNearNP(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep")
	}
	// §5.2.2: preemption matters less at 50% load than at 80%. The robust
	// form of that claim is relative: NP's low-class gain over P shrinks
	// at half load (less queueing to recover), and P's waste stays small.
	half, err := Figure8(Figure8HalfLoad, testScale())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Figure7(testScale())
	if err != nil {
		t.Fatal(err)
	}
	npDiff := func(f *ComparisonFigure) float64 {
		for _, c := range f.Comparisons() {
			if c.Name == "NP" {
				return c.MeanDiffPct[0] // low class
			}
		}
		t.Fatal("NP scenario missing")
		return 0
	}
	if gHalf, gRef := npDiff(half), npDiff(ref); gHalf < gRef {
		t.Fatalf("NP low-class gain at 50%% load (%.1f%%) exceeds 80%% load (%.1f%%)\n%s",
			gHalf, gRef, half)
	}
	// Waste under P at low load is small.
	if half.Baseline.ResourceWastePct > 10 {
		t.Fatalf("P waste at 50%% load = %.1f%%\n%s", half.Baseline.ResourceWastePct, half)
	}
}

func TestFigure9ThreePriorities(t *testing.T) {
	if testing.Short() {
		t.Skip("four scenario sweeps")
	}
	res, err := Figure9(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baseline.PerClass) != 3 {
		t.Fatalf("%d classes", len(res.Baseline.PerClass))
	}
	// Preemption with three classes wastes more than with two (the paper:
	// ~16% vs ~4%); at least it must be nonzero and the DA runs zero.
	if res.Baseline.ResourceWastePct <= 0 {
		t.Fatal("P waste zero in three-priority system")
	}
	for _, c := range res.Comparisons() {
		if c.ResourceWastePct != 0 {
			t.Fatalf("%s waste nonzero", c.Name)
		}
	}
	// DA(0,20,40) must improve the low class.
	cs := res.Comparisons()
	last := cs[len(cs)-1]
	if last.MeanDiffPct[0] >= 0 {
		t.Fatalf("DA(0,20,40) low diff = %+.1f%%\n%s", last.MeanDiffPct[0], res)
	}
}

func TestFigure10TriangleCount(t *testing.T) {
	if testing.Short() {
		t.Skip("seven scenario sweeps")
	}
	sc := testScale()
	sc.Jobs = 80
	res, err := Figure10(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Others) != 6 { // NP + 5 drop levels
		t.Fatalf("%d scenarios", len(res.Others))
	}
	cs := res.Comparisons()
	da20 := cs[len(cs)-1]
	if da20.Name != "DA(0,20)" {
		t.Fatalf("last scenario = %s", da20.Name)
	}
	// Modest per-stage dropping gives a large low-priority gain (§5.2.4).
	if da20.MeanDiffPct[0] >= -10 {
		t.Fatalf("DA(0,20) low mean diff = %+.1f%%\n%s", da20.MeanDiffPct[0], res)
	}
}

func TestFigure11FullDiAS(t *testing.T) {
	if testing.Short() {
		t.Skip("six scenario sweeps")
	}
	sc := testScale()
	sc.Jobs = 80
	res, err := Figure11(sc)
	if err != nil {
		t.Fatal(err)
	}
	const low, high = 0, 1
	// Unlimited sprinting + approximation improves BOTH classes vs P.
	for _, c := range res.Unlimited.Comparisons() {
		if c.MeanDiffPct[low] >= 0 || c.MeanDiffPct[high] >= 0 {
			t.Fatalf("unlimited %s did not improve both classes: low %+.1f%% high %+.1f%%\n%s",
				c.Name, c.MeanDiffPct[low], c.MeanDiffPct[high], res)
		}
	}
	// Energy drops despite sprinting (§5.3, Figure 11c).
	unl := res.Unlimited.Comparisons()
	if unl[len(unl)-1].EnergyDiffPct >= 0 {
		t.Fatalf("DiAS(0,20) unlimited energy diff = %+.1f%%\n%s",
			unl[len(unl)-1].EnergyDiffPct, res)
	}
	// Table 2 renders with all three policies.
	tbl := res.Table2()
	for _, want := range []string{"NPS", "DiAS(0,10)", "DiAS(0,20)", "Queue", "Exec"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, tbl)
		}
	}
	// DiAS(0,20) low execution < NPS low execution (dropping shortens it).
	var npsLowExec, dias20LowExec float64
	npsLowExec = res.NPS.PerClass[low].MeanExecSec
	dias20LowExec = res.Limited.Others[1].PerClass[low].MeanExecSec
	if dias20LowExec >= npsLowExec {
		t.Fatalf("DiAS(0,20) low exec %.1fs not below NPS %.1fs\n%s", dias20LowExec, npsLowExec, tbl)
	}
}

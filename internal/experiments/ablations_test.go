package experiments

import (
	"strings"
	"testing"
)

func TestAblationSprintTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy scenario sweep")
	}
	sc := extScale()
	sc.Jobs = 60
	fig, err := AblationSprintTimeout(sc)
	if err != nil {
		t.Fatal(err)
	}
	comps := fig.Comparisons()
	if len(comps) != 2 {
		t.Fatalf("%d comparisons, want 2 (immediate, timeout)", len(comps))
	}
	// Sprinting under a finite budget must not hurt the high class badly;
	// both variants should improve or roughly hold its mean latency.
	for _, c := range comps {
		if c.MeanDiffPct[1] > 15 {
			t.Errorf("%s: high-priority mean +%.1f%% under sprinting", c.Name, c.MeanDiffPct[1])
		}
	}
	if !strings.Contains(fig.String(), "sprint-timeout") {
		t.Error("rendering lacks title")
	}
}

func TestAblationEvictionResume(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy scenario sweep")
	}
	res, err := AblationEvictionResume(extScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ResourceWastePct <= 0 {
		t.Error("preemptive-repeat produced no waste at 80% load")
	}
	if res.PerClass[0].Evictions == 0 {
		t.Error("no low-priority evictions recorded")
	}
}

func TestAblationDropTiming(t *testing.T) {
	res, err := AblationDropTiming(extScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedExecSec >= res.FullExecSec {
		t.Fatalf("theta=0.5 exec %.1fs not below full %.1fs", res.DroppedExecSec, res.FullExecSec)
	}
	// Dropping half the tasks should save a substantial fraction.
	if res.DroppedExecSec > 0.9*res.FullExecSec {
		t.Errorf("early drop saved only %.0f%%",
			100*(1-res.DroppedExecSec/res.FullExecSec))
	}
}

func TestFigureRenderings(t *testing.T) {
	f4 := &Figure4Result{
		Rows:       []Figure4Row{{Dataset: "126", Theta: 0.2, ObservedSec: 15.4, PredictedSec: 15.3, ErrPct: 0.8}},
		MeanErrPct: map[string]float64{"126": 0.8},
	}
	if s := f4.String(); !strings.Contains(s, "126") || !strings.Contains(s, "0.20") {
		t.Errorf("figure 4 rendering: %q", s)
	}
	// Two datasets: the "mean error" lines follow row order in every one of
	// 32 renderings (ranging over the map swapped them in ~1 run of 8).
	f4.Rows = append(f4.Rows, Figure4Row{Dataset: "147", Theta: 0.2, ObservedSec: 9.1, PredictedSec: 9.0, ErrPct: 1.1})
	f4.MeanErrPct["147"] = 1.1
	first := f4.String()
	if !strings.HasSuffix(first, "mean error 126: 0.8%\nmean error 147: 1.1%\n") {
		t.Errorf("figure 4 mean errors out of dataset order: %q", first)
	}
	for i := 1; i < 32; i++ {
		if s := f4.String(); s != first {
			t.Fatalf("figure 4 rendering %d differs:\n%s\nvs\n%s", i, s, first)
		}
	}
	f5 := &Figure5Result{
		Rows: []Figure5Row{{Theta: 0.2, Class: "low", ObservedSec: 47.7, PredictedSec: 46.2}},
	}
	if s := f5.String(); !strings.Contains(s, "low") {
		t.Errorf("figure 5 rendering: %q", s)
	}
	f6 := &Figure6Result{Rows: []Figure6Row{{Theta: 0.1, MAPEPct: 11.2}}}
	if s := f6.String(); !strings.Contains(s, "0.10") {
		t.Errorf("figure 6 rendering: %q", s)
	}
}

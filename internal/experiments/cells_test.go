package experiments

import (
	"math"
	"testing"

	"dias/internal/federation"
)

// TestReferenceCellsRejectNonFiniteLoad: a NaN or infinite offered load is
// an error at the cell boundary. A NaN load factor used to reach the event
// kernel as a NaN arrival instant and panic mid-run; +Inf put every
// arrival at t = 0 without complaint.
func TestReferenceCellsRejectNonFiniteLoad(t *testing.T) {
	w, err := NewReferenceWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	rr := func(int64) federation.RoutingPolicy { return federation.NewRoundRobin() }
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := w.RunStackCell(StackCell{Name: "stack", Jobs: 20, LoadFactor: x}); err == nil {
			t.Errorf("stack cell at load factor %g accepted", x)
		}
		fc := FederationCell{Name: "fed", Jobs: 20, Members: 2, Utilization: x, Routing: rr}
		if _, err := w.RunFederationCell(fc); err == nil {
			t.Errorf("federation cell at utilization %g accepted", x)
		}
	}
}

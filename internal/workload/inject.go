package workload

import (
	"errors"
	"math/rand"

	"dias/internal/engine"
	"dias/internal/simtime"
)

// Inject feeds n arrivals of an arrival process into a simulation
// feed-forward: only the *next* arrival is ever scheduled, and each
// arrival event builds its job, hands it to submit, draws the following
// gap and schedules itself again. Pending-arrival memory is O(1)
// regardless of n — this is what lets SubmitStream push a million jobs
// through a federation without materializing a million Arrival structs
// and closures up front.
//
// The draw order matches the materialized StreamOf path exactly: arrRng
// only ever draws gap/class pairs in arrival order and jobRng only ever
// builds jobs in arrival order, so a feed-forward run reproduces a
// materialized run bit for bit.
//
// Jobs are built at their arrival instant, so a job-source error can no
// longer be returned from the submitting call — it panics instead,
// naming the class, consistent with how Stack.SubmitAt and the
// federation dispatcher surface mid-run workload loss.
func Inject(sim *simtime.Simulation, proc Process, source JobSource, n int,
	arrRng, jobRng *rand.Rand, submit func(class int, job *engine.Job)) error {
	switch {
	case sim == nil:
		return errors.New("workload: inject into nil simulation")
	case proc == nil || source == nil:
		return errors.New("workload: nil arrival process or job source")
	case submit == nil:
		return errors.New("workload: nil submit hook")
	}
	if n <= 0 {
		return nil
	}
	// One arrival is pending at a time, so one callback bound here serves
	// all n of them, with the pending arrival's class beside it.
	var t float64
	var class int
	left := n
	var arrive func()
	schedule := func() {
		var gap float64
		gap, class = proc.Next(arrRng)
		t += gap
		sim.At(simtime.Time(t), arrive)
	}
	arrive = func() {
		job, err := source.Job(jobRng, class)
		if err != nil {
			panic("workload: inject: building class job failed: " + err.Error())
		}
		submit(class, job)
		left--
		if left > 0 {
			schedule()
		}
	}
	schedule()
	return nil
}

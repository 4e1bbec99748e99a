package engine

import (
	"math"
	"testing"

	"dias/internal/cluster"
	"dias/internal/dfs"
	"dias/internal/simtime"
)

// --- FIFO dispatch ----------------------------------------------------------

// fifoRig runs two single-stage jobs (6 and 2 unit tasks) on 2 slots and
// returns their completion times.
func fifoRig(t *testing.T) (aDone, bDone float64) {
	t.Helper()
	rig := newRig(t, 2, flatCost(10))
	jobA := &Job{Name: "a", Input: makeInput(6, 0), Stages: []Stage{{Kind: Result}}}
	jobB := &Job{Name: "b", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	var at, bt simtime.Time
	if _, err := rig.eng.Submit(jobA, SubmitOptions{OnComplete: func(r JobResult) { at = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.eng.Submit(jobB, SubmitOptions{OnComplete: func(r JobResult) { bt = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	return at.Seconds(), bt.Seconds()
}

func TestFIFOServesFirstJobFirst(t *testing.T) {
	aDone, bDone := fifoRig(t)
	// FIFO: A's 6 tasks monopolize both slots for 30s, B finishes at 40.
	if math.Abs(aDone-30) > 1e-9 || math.Abs(bDone-40) > 1e-9 {
		t.Fatalf("FIFO completions a=%g b=%g, want 30/40", aDone, bDone)
	}
}

// --- Locality ----------------------------------------------------------------

// localityRig builds a 2-node/1-core cluster over a 2-datanode dfs with
// replication 1, and a 1-block file living on datanode 0.
func localityRig(t *testing.T) (*simtime.Simulation, *cluster.Cluster, *Engine, *dfs.FS) {
	t.Helper()
	sim := simtime.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	ccfg.CoresPerNode = 1
	clu, err := cluster.New(sim, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := dfs.DefaultConfig()
	fcfg.DataNodes = 2
	fcfg.Replication = 1
	fcfg.BlockSize = 1000
	fcfg.LocalBytesPerSec = 1000 // 1 s local read
	fcfg.RemoteBytesPerSec = 100 // 10 s remote read
	fs, err := dfs.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/in", 1000); err != nil {
		t.Fatal(err)
	}
	eng, err := New(sim, clu, fs, CostModel{TaskOverheadSec: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sim, clu, eng, fs
}

func localityJob() *Job {
	return &Job{
		Name:      "local",
		Input:     Dataset{{{Key: "k", Value: 1.0}}},
		InputPath: "/in",
		Stages:    []Stage{{Kind: Result}},
	}
}

func TestLocalityPrefersReplicaNode(t *testing.T) {
	sim, _, eng, fs := localityRig(t)
	blocks, err := fs.Blocks("/in")
	if err != nil {
		t.Fatal(err)
	}
	holder := blocks[0].Replicas[0]
	_ = holder
	var finished simtime.Time
	if _, err := eng.Submit(localityJob(), SubmitOptions{OnComplete: func(r JobResult) { finished = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// Local placement: 1 s overhead + 1 s local read = 2 s.
	if math.Abs(finished.Seconds()-2) > 1e-9 {
		t.Fatalf("finished at %v, want 2 (local read)", finished)
	}
}

func TestLocalityFallsBackToRemote(t *testing.T) {
	sim, clu, eng, fs := localityRig(t)
	blocks, err := fs.Blocks("/in")
	if err != nil {
		t.Fatal(err)
	}
	holder := blocks[0].Replicas[0]
	// Occupy every slot on the replica's node so the task must go remote.
	_, ok := clu.AcquireMatching(func(n int) bool { return n%2 == holder })
	if !ok {
		t.Fatal("could not occupy the replica node")
	}
	var finished simtime.Time
	if _, err := eng.Submit(localityJob(), SubmitOptions{OnComplete: func(r JobResult) { finished = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// Remote placement: 1 s overhead + 10 s remote read = 11 s.
	if math.Abs(finished.Seconds()-11) > 1e-9 {
		t.Fatalf("finished at %v, want 11 (remote read)", finished)
	}
}

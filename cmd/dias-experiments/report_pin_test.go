//go:build amd64

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dias/internal/experiments"
)

// reportDigest pins the SHA-256 of the simulated fields of the report
// `make bench-smoke` writes (BENCH_SMOKE_ARGS). A change that claims the
// same simulated latency, waste and energy must leave it alone; a
// deliberate behaviour change updates it in the same commit and says why.
const reportDigest = "cfeda5f56b840584e443bbbf6d60d156195bf8dd811361aa428787bb042f7204"

// volatileFields are the report fields that depend on the host, the clock
// or the checkout rather than on the simulation.
var volatileFields = map[string]bool{
	"generated_at":          true,
	"git_sha":               true,
	"go_version":            true,
	"workers":               true,
	"total_wall_clock_sec":  true,
	"wall_clock_sec":        true,
	"sim_jobs_per_wall_sec": true,
}

// TestBenchReportPinned runs the smoke report's figures at its scale and
// compares the digest of their simulated fields against reportDigest.
// Every number is printed with six fixed decimals first: with the FMA path
// of math.Exp switched off (GODEBUG=cpu.fma=off) a few dozen results move
// in their last bits, and near-zero CI widths move by tens of percent
// relative, which any significant-digit rounding would see. The build
// constraint is TestFigureTextPinned's.
func TestBenchReportPinned(t *testing.T) {
	scale := experiments.FullScale()
	scale.Jobs = 60
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := run("7,federation-scaleout,faults,elasticity,scale", scale, 2, path, exportPaths{}, profilePaths{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report any
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	canon, err := json.Marshal(simulatedFields(report))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	if got := hex.EncodeToString(sum[:]); got != reportDigest {
		t.Errorf("report digest %s, pinned %s", got, reportDigest)
	}
}

// simulatedFields drops the volatile fields at any depth and replaces
// every number with its six-decimal text; json.Marshal then sorts the
// object keys, so the encoding is canonical.
func simulatedFields(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if volatileFields[k] {
				delete(v, k)
			} else {
				v[k] = simulatedFields(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = simulatedFields(x)
		}
	case float64:
		return strconv.FormatFloat(v, 'f', 6, 64)
	}
	return v
}

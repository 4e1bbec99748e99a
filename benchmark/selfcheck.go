package main

// -selfcheck: the evidence that two complete sets of runs of one commit
// agree within the benchmark's own bounds. Every workload runs twice, each
// time in a child process of its own (so peak_sys_mib stays per workload),
// and the two medians of every end-to-end metric are compared against the
// bound BENCHMARK.json declares; simulated metrics and the result digest
// must not differ at all.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json -selfcheck needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are simulated values: two runs at one seed must reproduce
// them to the last digit, whatever bound the declaration grants across
// seeds.
var exactMetrics = map[string]bool{"sim_useful_work_pct": true, "sim_accuracy_pct": true}

func selfcheck(opt options) error {
	data, err := os.ReadFile(opt.spec)
	if err != nil {
		return fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parsing %s: %w", opt.spec, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-24s %16s %16s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		first, err := childRun(exe, w.name, opt)
		if err != nil {
			return err
		}
		second, err := childRun(exe, w.name, opt)
		if err != nil {
			return err
		}
		if first.Digest != second.Digest {
			fmt.Printf("%-12s %-24s %16.12s %16.12s %9s %7s  DIFFERS\n", w.name, "digest", first.Digest, second.Digest, "", "exact")
			bad++
		}
		for _, m := range spec.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			bound, limit := m.Bound, fmt.Sprintf("%.1f%%", 100*m.Bound)
			if exactMetrics[m.Name] {
				bound, limit = 0, "exact"
			}
			verdict := "ok"
			if !(diff <= bound) {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-12s %-24s %16.6g %16.6g %8.2f%% %7s  %s\n", w.name, m.Name, a, b, 100*diff, limit, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons disagree beyond their bound", bad)
	}
	return nil
}

// childRun measures one workload in a child process, waits for it, and
// reads the full report it wrote.
func childRun(exe, workloadName string, opt options) (*report, error) {
	args := []string{
		"--workload", workloadName,
		"--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--trace", "0",
		"--out", opt.outDir,
	}
	if opt.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", workloadName, err, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(opt.outDir, "result-"+workloadName+".json"))
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("parsing the report of %s: %w", workloadName, err)
	}
	return rep, nil
}

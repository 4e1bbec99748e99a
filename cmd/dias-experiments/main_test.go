package main

import (
	"os"
	"path/filepath"
	"testing"

	"dias/internal/experiments"
)

// quickTestScale is a tiny scale for CLI plumbing tests that never runs a
// figure (selection errors fire first).
func quickTestScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Jobs = 20
	return sc
}

func TestCheckBenchOut(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.txt")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		path    string
		wantErr bool
	}{
		{"empty skips the report", "", false},
		{"writable dir", filepath.Join(dir, "BENCH_results.json"), false},
		{"existing file is fine", plain, false},
		{"missing parent dir", filepath.Join(dir, "no", "such", "dir", "out.json"), true},
		{"parent is a file", filepath.Join(plain, "out.json"), true},
		{"path is a directory", dir, true},
	}
	for _, c := range cases {
		if err := checkBenchOut(c.path); (err != nil) != c.wantErr {
			t.Errorf("%s: checkBenchOut(%q) err = %v, wantErr %v", c.name, c.path, err, c.wantErr)
		}
	}
	// The probe must not leave droppings or clobber existing files.
	if data, err := os.ReadFile(plain); err != nil || string(data) != "x" {
		t.Fatalf("existing file touched: %q %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("probe left droppings: %v", entries)
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	scale := quickTestScale()
	if err := run("no-such-figure", scale, 1, "", exportPaths{}, profilePaths{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunEmptySelection(t *testing.T) {
	if err := run(" , ", quickTestScale(), 1, "", exportPaths{}, profilePaths{}); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// TestProfilesCoverTheDriverLoop runs one small figure with both profiles
// armed: each file must hold a profile afterwards, and an unwritable path
// must fail before any figure runs.
func TestProfilesCoverTheDriverLoop(t *testing.T) {
	dir := t.TempDir()
	prof := profilePaths{cpu: filepath.Join(dir, "cpu.prof"), mem: filepath.Join(dir, "mem.prof")}
	if err := run("6", quickTestScale(), 1, "", exportPaths{}, prof); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{prof.cpu, prof.mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(path), err)
		}
	}
	bad := profilePaths{cpu: prof.cpu, mem: filepath.Join(dir, "no", "such", "dir", "mem.prof")}
	if err := run("6", quickTestScale(), 1, "", exportPaths{}, bad); err == nil {
		t.Fatal("unwritable -memprofile accepted")
	}
}

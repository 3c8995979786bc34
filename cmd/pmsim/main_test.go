package main

import (
	"strings"
	"testing"
)

// TestBadInputExitsOne checks that bad values end the run with exit
// code 1 and the reason on stderr — never a panic, never output.
func TestBadInputExitsOne(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-bench", "comm", "-n", "-5"}, "message size -5"},
		{[]string{"-bench", "comm", "-n", "0"}, "message size 0"},
		{[]string{"-bench", "comm", "-machine", "sun"}, "use -machine pm"},
		{[]string{"-cpus", "0"}, "cpus = 0"},
		{[]string{"-cpus", "3"}, "cpus = 3"},
		{[]string{"-bench", "matmult", "-n", "0"}, "matrix size 0"},
		{[]string{"-version", "bogus"}, `unknown matmult version "bogus"`},
		{[]string{"-bench", "hint", "-type", "bogus"}, `unknown hint data type "bogus"`},
		{[]string{"-bench", "hint", "-intervals", "-1"}, "interval budget -1"},
		{[]string{"-machine", "vax"}, `unknown machine "vax"`},
		{[]string{"-bench", "linpack"}, `unknown benchmark "linpack"`},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("pmsim %s: exit %d, want 1 (stderr %q)", name, code, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), "pmsim: ") || !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("pmsim %s: stderr %q, want a pmsim: error containing %q", name, stderr.String(), tc.wantErr)
		}
		if stdout.String() != "" {
			t.Errorf("pmsim %s: wrote %q to stdout on failure", name, stdout.String())
		}
	}
}

// TestGoodInputRuns checks that valid small runs of each benchmark
// succeed and report.
func TestGoodInputRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "9", "-cpus", "2", "-version", "naive"},
		{"-bench", "hint", "-type", "int", "-intervals", "40"},
		{"-bench", "comm", "-n", "64"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
			t.Errorf("pmsim %s: exit %d, stdout %q, stderr %q", strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}

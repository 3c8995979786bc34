package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldens pins the per-tenant service report and metrics dump of
// the default mix under go test.
func TestGoldens(t *testing.T) {
	const golden = "pmtraffic_default_metrics_seed1.golden"
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	args := []string{"--mix", "default", "--seed", "1", "--metrics"}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("pmtraffic %s: exit %d: %s", strings.Join(args, " "), code, errOut.String())
	}
	if out.String() != string(want) {
		t.Errorf("pmtraffic %s: stdout diverged from testdata/%s;\ngot:\n%s", strings.Join(args, " "), golden, out.String())
	}
}

// runCLI runs pmtraffic in process and returns its exit code and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBadInputExitsOne checks that bad values end the run with exit
// code 1 and the reason on stderr — never a panic, never output.
func TestBadInputExitsOne(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"--horizon-us", "-5"}, "negative horizon"},
		{[]string{"--engine", "par", "--shards", "-1"}, "negative shard count -1"},
		{[]string{"--topo", "torus"}, `unknown topology "torus"`},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		code, stdout, stderr := runCLI(tc.args...)
		if code != 1 {
			t.Errorf("pmtraffic %s: exit %d, want 1 (stderr %q)", name, code, stderr)
		}
		if !strings.HasPrefix(stderr, "pmtraffic: ") || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("pmtraffic %s: stderr %q, want a pmtraffic: error containing %q", name, stderr, tc.wantErr)
		}
		if stdout != "" {
			t.Errorf("pmtraffic %s: wrote %q to stdout on failure", name, stdout)
		}
	}
}

// TestZeroShardsMeansOne checks that the parallel engine's default
// shard count is one, so --engine par runs on the default (single-leaf)
// Cluster8 and prints what the sequential engine prints.
func TestZeroShardsMeansOne(t *testing.T) {
	_, want, _ := runCLI()
	for _, args := range [][]string{{"--engine", "par"}, {"--engine", "par", "--shards", "1"}} {
		code, stdout, stderr := runCLI(args...)
		if code != 0 || stdout != want || want == "" {
			t.Errorf("pmtraffic %s: exit %d (stderr %q), stdout matches the seq run: %v",
				strings.Join(args, " "), code, stderr, stdout == want)
		}
	}
}

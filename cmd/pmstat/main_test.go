package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldens pins the windowed-telemetry golden under go test: the
// System256 default mix under the link-cut scenario, on the sequential
// engine and partitioned across 4 psim shards.
func TestGoldens(t *testing.T) {
	const golden = "pmstat_default_system256_seed1.golden"
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	base := []string{"--campaign", "link-cut", "--faults", "8", "--topo", "system256", "--seed", "1"}
	for _, args := range [][]string{base, append(base[:len(base):len(base)], "--engine", "par", "--shards", "4")} {
		var out, errOut strings.Builder
		name := strings.Join(args, " ")
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("pmstat %s: exit %d: %s", name, code, errOut.String())
		}
		if out.String() != string(want) {
			t.Errorf("pmstat %s: stdout diverged from testdata/%s;\ngot:\n%s", name, golden, out.String())
		}
	}
}

// runCLI runs pmstat in process and returns its exit code and output.
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
		{[]string{"--campaign", "link-cut", "--faults", "-3", "--topo", "system256"}, "negative fault count -3"},
		{[]string{"--horizon-us", "-1"}, "negative horizon"},
		{[]string{"--window-us", "-5"}, "negative telemetry window"},
		{[]string{"--engine", "par", "--shards", "-1"}, "negative shard count -1"},
		{[]string{"--campaign", "no-such"}, `unknown campaign "no-such"`},
		{[]string{"--topo", "torus"}, `unknown topology "torus"`},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		code, stdout, stderr := runCLI(tc.args...)
		if code != 1 {
			t.Errorf("pmstat %s: exit %d, want 1 (stderr %q)", name, code, stderr)
		}
		if !strings.HasPrefix(stderr, "pmstat: ") || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("pmstat %s: stderr %q, want a pmstat: error containing %q", name, stderr, tc.wantErr)
		}
		if stdout != "" {
			t.Errorf("pmstat %s: wrote %q to stdout on failure", name, stdout)
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
			t.Errorf("pmstat %s: exit %d (stderr %q), stdout matches the seq run: %v",
				strings.Join(args, " "), code, stderr, stdout == want)
		}
	}
}

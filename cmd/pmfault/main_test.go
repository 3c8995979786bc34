package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs pmfault in process and returns its exit code and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestGoldens pins every checked-in pmfault golden under go test: each
// case is a command line and the golden its stdout must match byte for
// byte, on the sequential engine and on the parallel one (row-parallel,
// or the workload partitioned across psim shards).
func TestGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"pmfault_link-cut_seed1.golden", []string{"--campaign", "link-cut", "--seed", "1"}},
		{"pmfault_link-cut_seed1.golden", []string{"--campaign", "link-cut", "--seed", "1", "--engine", "par"}},
		{"pmfault_heat-linkcut_seed1.golden", []string{"--campaign", "heat-linkcut", "--seed", "1"}},
		{"pmfault_heat-linkcut_seed1.golden", []string{"--campaign", "heat-linkcut", "--seed", "1", "--engine", "par"}},
		{"pmfault_central-cut_seed1.golden", []string{"--campaign", "central-cut", "--seed", "1"}},
		{"pmfault_central-cut_seed1.golden", []string{"--campaign", "central-cut", "--seed", "1", "--engine", "par"}},
		{"pmfault_heat-linkcut_system256_seed1.golden", []string{"--campaign", "heat-linkcut", "--topo", "system256", "--seed", "1"}},
		{"pmfault_heat-linkcut_system256_seed1.golden", []string{"--campaign", "heat-linkcut", "--topo", "system256", "--seed", "1", "--engine", "par", "--shards", "4"}},
		{"pmfault_link-cut_metrics_seed1.golden", []string{"--campaign", "link-cut", "--seed", "1", "--metrics"}},
		{"pmfault_heat-linkcut_metrics_seed1.golden", []string{"--campaign", "heat-linkcut", "--seed", "1", "--metrics"}},
		{"pmfault_heat-linkcut_metrics_seed1.golden", []string{"--campaign", "heat-linkcut", "--seed", "1", "--metrics", "--engine", "par"}},
		{"pmfault_traffic_system256_seed1.golden", []string{"--traffic", "--topo", "system256", "--seed", "1"}},
		{"pmfault_traffic_system256_seed1.golden", []string{"--traffic", "--topo", "system256", "--seed", "1", "--engine", "par", "--shards", "4"}},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.golden))
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		code, got, stderr := runCLI(tc.args...)
		if code != 0 {
			t.Fatalf("pmfault %s: exit %d: %s", name, code, stderr)
		}
		if got != string(want) {
			t.Errorf("pmfault %s: stdout diverged from testdata/%s;\ngot:\n%s", name, tc.golden, got)
		}
	}
}

// TestBadInputExitsOne checks that malformed values end the run with
// exit code 1 and the reason on stderr — never a panic, never output.
func TestBadInputExitsOne(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"--messages", "-5"}, "negative message count -5"},
		{[]string{"--window-us", "-3"}, "negative traffic window"},
		{[]string{"--traffic", "--window-us", "-3"}, "negative traffic horizon"},
		{[]string{"--topo", "torus"}, `unknown topology "torus"`},
		{[]string{"--campaign", "no-such"}, `unknown campaign "no-such"`},
		{[]string{"--engine", "warp"}, "warp"},
		{[]string{"--engine", "par", "--shards", "-1"}, "negative shard count -1"},
		{[]string{"--payload", "-1"}, "negative payload size -1"},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		code, stdout, stderr := runCLI(tc.args...)
		if code != 1 {
			t.Errorf("pmfault %s: exit %d, want 1 (stderr %q)", name, code, stderr)
		}
		if !strings.HasPrefix(stderr, "pmfault: ") || !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("pmfault %s: stderr %q, want a pmfault: error containing %q", name, stderr, tc.wantErr)
		}
		if stdout != "" {
			t.Errorf("pmfault %s: wrote %q to stdout on failure", name, stdout)
		}
	}
	if code, _, _ := runCLI("--no-such-flag"); code != 2 {
		t.Errorf("pmfault --no-such-flag: exit %d, want 2", code)
	}
}

// TestZeroShardsMeansOne checks that the parallel engine's default
// shard count is one, so --traffic --engine par runs on the default
// (single-leaf) Cluster8 and prints what the sequential engine prints.
func TestZeroShardsMeansOne(t *testing.T) {
	_, want, _ := runCLI("--traffic")
	for _, args := range [][]string{{"--traffic", "--engine", "par"}, {"--traffic", "--engine", "par", "--shards", "1"}} {
		code, stdout, stderr := runCLI(args...)
		if code != 0 || stdout != want || want == "" {
			t.Errorf("pmfault %s: exit %d (stderr %q), stdout matches --traffic: %v",
				strings.Join(args, " "), code, stderr, stdout == want)
		}
	}
}

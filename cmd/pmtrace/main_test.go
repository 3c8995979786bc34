package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermanna/internal/psim"
	"powermanna/internal/trace"
)

// renderChrome runs one pmtrace workload or campaign and returns the
// Chrome trace_event export, failing the test on any error.
func renderChrome(t *testing.T, campaign, run string, seed int64, messages int) string {
	t.Helper()
	rec := trace.NewRecorder()
	var err error
	if campaign != "" {
		err = runCampaign(rec, campaign, seed, nil, messages, psim.Seq)
	} else {
		err = runWorkload(rec, run, seed, nil, messages)
	}
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.WriteChrome(&b, rec); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWorkloadTracesDeterministic runs every workload twice with the
// same seed and requires byte-identical exports — the pmtrace half of
// the determinism contract.
func TestWorkloadTracesDeterministic(t *testing.T) {
	for _, run := range []string{"pingpong", "fib", "dispatch"} {
		first := renderChrome(t, "", run, 1, 0)
		second := renderChrome(t, "", run, 1, 0)
		if first != second {
			t.Errorf("--run %s: two seed-1 runs produced different traces", run)
		}
		if strings.Count(first, "\n") < 4 {
			t.Errorf("--run %s: trace suspiciously empty:\n%s", run, first)
		}
		if first == renderChrome(t, "", run, 2, 0) {
			t.Errorf("--run %s: seeds 1 and 2 produced identical traces", run)
		}
	}
}

// TestCampaignTracesDeterministic does the same for the fault-campaign
// mode: one synthetic campaign and the System256 central-stage one.
func TestCampaignTracesDeterministic(t *testing.T) {
	for _, campaign := range []string{"link-cut", "central-cut"} {
		first := renderChrome(t, campaign, "", 1, 60)
		if first != renderChrome(t, campaign, "", 1, 60) {
			t.Errorf("--campaign %s: two seed-1 runs produced different traces", campaign)
		}
		if !strings.Contains(first, "failover") {
			t.Errorf("--campaign %s: no failover events in the trace", campaign)
		}
	}
}

// runCLI runs pmtrace in process and returns its exit code and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// checkGolden runs one pmtrace command line and requires its stdout to
// match testdata/<golden> byte for byte.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
	if err != nil {
		t.Fatalf("missing golden (regenerate with pmtrace): %v", err)
	}
	name := strings.Join(args, " ")
	code, got, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("pmtrace %s: exit %d: %s", name, code, stderr)
	}
	if got != string(want) {
		t.Errorf("pmtrace %s: output diverged from testdata/%s (len %d vs %d)", name, golden, len(got), len(want))
	}
}

// TestGoldenTraces pins the Chrome exports against the checked-in
// goldens — a comm workload and a fault campaign, the campaign on both
// engines (the psim contract: --engine par reproduces the sequential
// timeline byte for byte) — so a trace-format or schedule change is a
// deliberate golden update, never drift.
func TestGoldenTraces(t *testing.T) {
	checkGolden(t, "pmtrace_pingpong_seed1.golden", "--run", "pingpong", "--seed", "1")
	checkGolden(t, "pmtrace_link-cut_seed1.golden", "--campaign", "link-cut", "--seed", "1", "--messages", "60")
	checkGolden(t, "pmtrace_link-cut_seed1.golden", "--campaign", "link-cut", "--seed", "1", "--messages", "60", "--engine", "par")
}

// record runs one pmtrace workload or campaign into a fresh recorder.
func record(t *testing.T, campaign, run string, seed int64, messages int) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	var err error
	if campaign != "" {
		err = runCampaign(rec, campaign, seed, nil, messages, psim.Seq)
	} else {
		err = runWorkload(rec, run, seed, nil, messages)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestAnalyticsFormatsDeterministic runs the three analytics formats
// twice on the same seed and requires byte-identical output — the
// acceptance criterion for the analysis layer.
func TestAnalyticsFormatsDeterministic(t *testing.T) {
	render := func(rec *trace.Recorder, format string) string {
		var b strings.Builder
		var err error
		switch format {
		case "utilization":
			err = trace.WriteUtilization(&b, rec, 0)
		case "critpath":
			err = trace.WriteCritPath(&b, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, format := range []string{"utilization", "critpath"} {
		first := render(record(t, "", "pingpong", 1, 0), format)
		second := render(record(t, "", "pingpong", 1, 0), format)
		if first != second {
			t.Errorf("--format %s: two seed-1 runs rendered differently", format)
		}
		if strings.Count(first, "\n") < 3 {
			t.Errorf("--format %s: output suspiciously empty:\n%s", format, first)
		}
	}
}

// TestDiffSameSeedIsClean pins the diff acceptance criterion: the same
// workload under the same seed diffs clean, and under a different seed
// reports a non-empty delta.
func TestDiffSameSeedIsClean(t *testing.T) {
	for _, tc := range []struct {
		seed2     string
		identical bool
	}{{"1", true}, {"2", false}} {
		code, out, stderr := runCLI("--run", "pingpong", "--format", "diff", "--seed", "1", "--seed2", tc.seed2)
		if code != 0 {
			t.Fatalf("pmtrace diff --seed2 %s: exit %d: %s", tc.seed2, code, stderr)
		}
		if strings.Contains(out, "timelines identical") != tc.identical {
			t.Errorf("seed 1 vs seed %s: identical=%v, want %v:\n%s", tc.seed2, !tc.identical, tc.identical, out)
		}
	}
}

// TestGoldenAnalytics pins the utilization series and the two-seed
// diff report against the checked-in goldens.
func TestGoldenAnalytics(t *testing.T) {
	checkGolden(t, "pmtrace_pingpong_utilization_seed1.golden", "--run", "pingpong", "--format", "utilization", "--seed", "1")
	checkGolden(t, "pmtrace_pingpong_diff_seed1_seed2.golden", "--run", "pingpong", "--format", "diff", "--seed", "1", "--seed2", "2")
}

// TestBadInputExitsOne checks that bad values end the run with exit
// code 1 and the reason on stderr, and a malformed command line with 2.
func TestBadInputExitsOne(t *testing.T) {
	for _, args := range [][]string{
		{"--topo", "torus"}, {"--engine", "warp"}, {"--format", "svg"},
		{"--run", "no-such"}, {"--campaign", "no-such"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "pmtrace: ") {
			t.Errorf("pmtrace %s: exit %d, stdout %q, stderr %q; want exit 1 with a pmtrace: reason",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
	if code, _, _ := runCLI("--no-such-flag"); code != 2 {
		t.Errorf("pmtrace --no-such-flag: exit %d, want 2", code)
	}
}

// TestProfileFormat checks the plain-text exporter renders a table for
// a recorded workload.
func TestProfileFormat(t *testing.T) {
	rec := trace.NewRecorder()
	if err := runWorkload(rec, "dispatch", 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.WriteProfile(&b, rec, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "trace profile") || !strings.Contains(out, "dispatcher addr") {
		t.Errorf("profile output missing expected sections:\n%s", out)
	}
}

package main

import (
	"strings"
	"testing"

	"powermanna"
)

// TestBadInputExitsOne checks that bad values end the run with exit
// code 1 and the reason on stderr before any experiment runs: stdout
// stays empty even when valid IDs precede the bad one.
func TestBadInputExitsOne(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "table1,bogus"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "table1,"}, `unknown experiment ""`},
		{[]string{"-exp", ""}, `unknown experiment ""`},
		{[]string{"-engine", "warp", "-exp", "table1"}, `unknown engine "warp"`},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("pmbench %s: exit %d, want 1 (stderr %q)", name, code, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), "pmbench: ") || !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("pmbench %s: stderr %q, want a pmbench: error containing %q", name, stderr.String(), tc.wantErr)
		}
		if stdout.String() != "" {
			t.Errorf("pmbench %s: wrote %q to stdout on failure", name, stdout.String())
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.String() != "" {
		t.Errorf("wrote %q to stdout on a malformed command line", stdout.String())
	}
}

func TestListMatchesExperimentIDs(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	want := strings.Join(powermanna.ExperimentIDs(), "\n") + "\n"
	if got := stdout.String(); got != want {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want)
	}
}

// TestRunsSelectedExperiments checks that a valid selection, with the
// spaces a hand-typed list may carry, renders each experiment in order.
func TestRunsSelectedExperiments(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "table1, fig9"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	i, j := strings.Index(out, "### table1 "), strings.Index(out, "### fig9 ")
	if i < 0 || j < i {
		t.Errorf("want table1 then fig9, got:\n%s", out)
	}
}

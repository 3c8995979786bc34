package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.name)
		}
	}
	for _, group := range [][]metric{endToEnd, perLayer} {
		for _, m := range group {
			use("metric", m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better = %q", m.name, m.better)
			}
			if m.clock != "host" && m.clock != "sim" {
				t.Errorf("metric %s: clock = %q, want host or sim", m.name, m.clock)
			}
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("per-layer %s names no end-to-end metric it should move", m.name)
		}
	}
	if m := endToEnd[2]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("setup_s missing or malformed: %+v", m)
	}
}

// TestBenchmarkFileInSync keeps the checked-in BENCHMARK.json equal to
// the tables it is generated from (regenerate with --write-spec).
func TestBenchmarkFileInSync(t *testing.T) {
	want, err := benchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; run: bash perfbench/run.sh --write-spec BENCHMARK.json")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap,
	// and a child c [90,120) that runs past its end; a has a child
	// [15,25) and b a child [50,60) that ends with it.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Parent: 3, Name: "b1", Start: 50, End: 60},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.startPass()
	endOuter := tr.begin("outer")
	endInner := tr.begin("inner")
	endInner()
	endOuter()
	tr.begin("next")()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if p := tr.spans[1].Parent; p != tr.spans[0].ID {
		t.Errorf("inner parent %d, want %d", p, tr.spans[0].ID)
	}
	if p := tr.spans[2].Parent; p != 0 {
		t.Errorf("next parent %d, want root", p)
	}
	for _, s := range tr.spans {
		if s.Pass != 1 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
	var none *tracer
	none.startPass()
	none.begin("ignored")()
}

// TestCorruptedPassFails swaps in a workload whose output has one byte
// flipped, and checks the run counts the failure, reports correct false
// and exits non-zero.
func TestCorruptedPassFails(t *testing.T) {
	golden := filepath.Join(t.TempDir(), "golden")
	if err := os.WriteFile(golden, []byte("expected output\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		flipAt  int // pass number whose output is corrupted
		seed    string
		wantBad int
	}{
		{"repeated seq pass differs from reference", 2, "2", 1},
		{"par2 pass differs from seq reference", 3, "2", 1},
		{"reference differs from golden", 1, "1", 1},
		{"clean", 0, "1", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			passes := 0
			w := &workload{
				name:  "flip",
				why:   "test",
				setup: func(int64) error { return nil },
				pass: func(int64, bool, *tracer) ([]section, error) {
					passes++
					text := []byte("expected output\n")
					if passes == tc.flipAt {
						text[3] ^= 1
					}
					return []section{{"out", golden, text}}, nil
				},
			}
			saved, savedRSS := workloads, peakRSS
			workloads = []*workload{w}
			peakRSS = func(*workload, int64) (float64, error) { return 1, nil }
			t.Cleanup(func() { workloads, peakRSS = saved, savedRSS })

			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", "flip", "--seed", tc.seed, "--seconds", "0.01"}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if res.Failed != tc.wantBad || res.Correct != (tc.wantBad == 0) {
				t.Errorf("failed %d correct %v, want failed %d\n%s", res.Failed, res.Correct, tc.wantBad, stderr.String())
			}
			if wantCode := map[bool]int{true: 0, false: 1}[tc.wantBad == 0]; code != wantCode {
				t.Errorf("exit code %d, want %d", code, wantCode)
			}
			if res.Attempted < passes {
				t.Errorf("attempted %d < %d passes", res.Attempted, passes)
			}
		})
	}
}

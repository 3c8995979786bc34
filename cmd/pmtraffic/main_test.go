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

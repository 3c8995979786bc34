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

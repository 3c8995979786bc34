package heat

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestSystem256Pinned pins heat on System256 (24 cells per rank, 30
// steps) over both message-passing worlds: the exact makespan, the
// traffic, and a digest of the full metrics dump, including the
// per-rank mpl.recv.wait views. The constants were captured from the
// two independent World and PWorld send/receive paths; any change to
// the shared cost model or to either executor shows up here first.
func TestSystem256Pinned(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	want, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		run      func(*metrics.Registry) (Result, error)
		makespan sim.Time
		digest   string
	}{
		{"World", func(reg *metrics.Registry) (Result, error) {
			w := mpl.NewWorld(top)
			w.SetMetrics(reg)
			return Run(w, cfg)
		}, 246807050, "5e0afe8a85a01bbcfbf67c90c9feed75f84a1404daa2944a63c221aa5269ca29"},
		{"PWorld", func(reg *metrics.Registry) (Result, error) {
			w, err := mpl.NewPWorld(top, 1)
			if err != nil {
				return Result{}, err
			}
			w.SetMetrics(reg)
			return RunPart(w, cfg)
		}, 293460574, "274a0b4fe27824bd990014b77ce4e616e05838bd706226b39c71165e4fd057cb"},
	}
	for _, c := range cases {
		reg := metrics.NewRegistry()
		res, err := c.run(reg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range want {
			if res.Field[i] != want[i] {
				t.Fatalf("%s: cell %d = %g, want %g", c.name, i, res.Field[i], want[i])
			}
		}
		dump := reg.Render()
		if !strings.Contains(dump, "mpl.recv.wait.r127") {
			t.Fatalf("%s: metrics dump lacks the per-rank receive-wait views", c.name)
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(dump)))
		if res.Makespan != c.makespan || res.Messages != 7620 || res.MsgBytes != 60960 || digest != c.digest {
			t.Errorf("%s: makespan %v msgs %d bytes %d digest %s; want %v 7620 60960 %s",
				c.name, res.Makespan, res.Messages, res.MsgBytes, digest, c.makespan, c.digest)
		}
	}
}

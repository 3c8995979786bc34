package heat

import (
	"fmt"
	"testing"

	"powermanna/internal/mpl"
	"powermanna/internal/topo"
)

// TestPartMatchesSerialExactly pins the SPMD solver's arithmetic: the
// field computed over the partitioned world is bit-identical to the
// serial reference, at every aligned shard count.
func TestPartMatchesSerialExactly(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 60)
	want, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range want {
			if res.Field[i] != want[i] {
				t.Fatalf("shards=%d: cell %d = %g, want %g", shards, i, res.Field[i], want[i])
			}
		}
		if res.Makespan <= 0 || res.Messages == 0 {
			t.Fatalf("shards=%d: trivial result %+v", shards, res)
		}
	}
}

// TestPartDeterministicAcrossShards pins the timing side: identical
// makespan and traffic at every aligned shard count.
func TestPartDeterministicAcrossShards(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(8*top.Nodes(), 12)
	cfg.ReduceEvery = 6
	run := func(shards int) Result {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	ref := run(1)
	for _, shards := range []int{2, 4, 8, 16} {
		got := run(shards)
		if got.Makespan != ref.Makespan || got.Messages != ref.Messages || got.MsgBytes != ref.MsgBytes {
			t.Errorf("shards=%d: makespan %v msgs %d bytes %d, want %v %d %d",
				shards, got.Makespan, got.Messages, got.MsgBytes, ref.Makespan, ref.Messages, ref.MsgBytes)
		}
	}
}

// BenchmarkHeatSystem256 sweeps the partitioned heat solver across
// shard counts on the full machine: shards=1 is the single-heap
// baseline, more shards fan the shard heaps across worker goroutines.
// Wall-clock at shards=4 under -cpu 4 is the
// headline: the same byte-identical event program, walked in parallel.
func BenchmarkHeatSystem256(b *testing.B) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	run := func(b *testing.B, shards int) {
		for i := 0; i < b.N; i++ {
			w, err := mpl.NewPWorld(top, shards)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunPart(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { run(b, shards) })
	}
}

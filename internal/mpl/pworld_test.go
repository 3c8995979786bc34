package mpl

import (
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestPWorldPingPong runs a two-rank exchange on Cluster8 and checks
// payload integrity, causality and clock advance.
func TestPWorldPingPong(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	const rounds = 5
	err = w.Run(func(r *PRank) error {
		switch r.Rank() {
		case 0:
			for i := 0; i < rounds; i++ {
				if err := r.Send(1, i, []byte{byte(i), 0xAB}); err != nil {
					return err
				}
				b, err := r.Recv(1, 100+i)
				if err != nil {
					return err
				}
				if len(b) != 2 || b[0] != byte(i)+1 {
					return fmt.Errorf("round %d echo = %v", i, b)
				}
			}
		case 1:
			for i := 0; i < rounds; i++ {
				b, err := r.Recv(0, i)
				if err != nil {
					return err
				}
				if err := r.Send(0, 100+i, []byte{b[0] + 1, b[1]}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.MaxTime() <= 0 {
		t.Fatalf("makespan = %v", w.MaxTime())
	}
	msgs, bytes := w.Stats()
	if msgs != 2*rounds || bytes != 4*rounds {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

// TestPWorldDeadlockReported pins the abort path: a rank that receives
// a message nobody sends must surface as a deadlock error naming it,
// not hang or panic.
func TestPWorldDeadlockReported(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	err = w.Run(func(r *PRank) error {
		if r.Rank() == 3 {
			_, err := r.Recv(0, 999)
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "[3]") {
		t.Fatalf("deadlock error = %v", err)
	}
}

// TestPWorldCollectives checks the SPMD collectives' arithmetic on a
// full Cluster8: AllReduce of known vectors, Bcast fan-out, Gather
// assembly, Barrier completion.
func TestPWorldCollectives(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	p := w.Ranks()
	wantSum := float64(p*(p+1)) / 2
	fields := make([][]float64, p)
	err = w.Run(func(r *PRank) error {
		rank := r.Rank()
		got, err := r.AllReduce([]float64{float64(rank + 1), 2}, 7)
		if err != nil {
			return err
		}
		if got[0] != wantSum || got[1] != float64(2*p) {
			return fmt.Errorf("allreduce = %v", got)
		}
		bc, err := r.Bcast([]float64{42, float64(rank)}, 9)
		if err != nil {
			return err
		}
		if bc[0] != 42 || bc[1] != 0 {
			return fmt.Errorf("bcast = %v", bc)
		}
		if err := r.Barrier(3); err != nil {
			return err
		}
		g, err := r.Gather([]float64{float64(rank * rank)}, 11)
		if err != nil {
			return err
		}
		if rank == 0 {
			for q := range g {
				fields[q] = g[q]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for q := 0; q < p; q++ {
		if len(fields[q]) != 1 || fields[q][0] != float64(q*q) {
			t.Fatalf("gather[%d] = %v", q, fields[q])
		}
	}
}

// pworldTrial runs a deterministic mixed workload (point-to-point ring
// plus an AllReduce) on System256 and returns the makespan, traffic
// and rendered metrics.
func pworldTrial(t *testing.T, shards int) (sim.Time, int64, int64, string) {
	t.Helper()
	w, err := NewPWorld(topo.System256(), shards)
	if err != nil {
		t.Fatalf("NewPWorld(%d): %v", shards, err)
	}
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	err = w.Run(func(r *PRank) error {
		p, rank := r.Ranks(), r.Rank()
		next, prev := (rank+1)%p, (rank+p-1)%p
		for round := 0; round < 3; round++ {
			if err := r.Send(next, round, []byte{byte(rank), byte(round)}); err != nil {
				return err
			}
			b, err := r.Recv(prev, round)
			if err != nil {
				return err
			}
			if b[0] != byte(prev) || b[1] != byte(round) {
				return fmt.Errorf("ring round %d got %v", round, b)
			}
		}
		got, err := r.AllReduce([]float64{1}, 0)
		if err != nil {
			return err
		}
		if got[0] != float64(p) {
			return fmt.Errorf("allreduce = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	msgs, bytes := w.Stats()
	return w.MaxTime(), msgs, bytes, reg.Render()
}

// TestPWorldDeterministicAcrossShards pins the tentpole invariant at
// the message-passing layer: the same SPMD program produces identical
// makespans, traffic and metrics at every aligned shard count.
func TestPWorldDeterministicAcrossShards(t *testing.T) {
	refT, refM, refB, refMet := pworldTrial(t, 1)
	if refT <= 0 || refM == 0 {
		t.Fatalf("trivial reference: makespan %v, %d msgs", refT, refM)
	}
	for _, shards := range []int{2, 4, 8, 16} {
		gt, gm, gb, gmet := pworldTrial(t, shards)
		if gt != refT || gm != refM || gb != refB {
			t.Errorf("shards=%d: makespan %v msgs %d bytes %d, want %v %d %d",
				shards, gt, gm, gb, refT, refM, refB)
		}
		if gmet != refMet {
			t.Errorf("shards=%d: metrics diverged", shards)
		}
	}
}

// BenchmarkAllreduceSystem256 sweeps repeated 128-rank AllReduce rounds
// across shard counts: shards=1 is the single-heap baseline, more
// shards walk their heaps concurrently. The butterfly's
// cross-group edges are exactly the traffic the partition mailboxes
// exist for, so this is the communication-bound end of the sweep.
func BenchmarkAllreduceSystem256(b *testing.B) {
	top := topo.System256()
	const rounds = 10
	run := func(b *testing.B, shards int) {
		for i := 0; i < b.N; i++ {
			w, err := NewPWorld(top, shards)
			if err != nil {
				b.Fatal(err)
			}
			p := w.Ranks()
			wantA := float64(p) * float64(p+1) / 2
			err = w.Run(func(r *PRank) error {
				for round := 0; round < rounds; round++ {
					got, err := r.AllReduce([]float64{float64(r.Rank() + 1)}, round)
					if err != nil {
						return err
					}
					if len(got) != 1 || got[0] != wantA {
						return fmt.Errorf("round %d sum = %v, want %v", round, got, wantA)
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { run(b, shards) })
	}
}

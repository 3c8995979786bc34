package psim

import (
	"fmt"
	"testing"

	"powermanna/internal/sim"
)

// TestShardMatchesSchedulerOrder drives the same event program — ties,
// reentrant scheduling, After chains — through a sim.Scheduler's Run
// and through the barrier rounds of a single-shard engine, and requires
// identical dispatch order.
func TestShardMatchesSchedulerOrder(t *testing.T) {
	program := func(e *sim.Scheduler, run func()) []string {
		var log []string
		emit := func(tag string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%v", tag, e.Now())) }
		}
		e.At(30*sim.Nanosecond, emit("c"))
		e.At(10*sim.Nanosecond, emit("a"))
		e.At(10*sim.Nanosecond, func() {
			log = append(log, fmt.Sprintf("b@%v", e.Now()))
			e.After(5*sim.Nanosecond, emit("b2"))
			e.At(e.Now(), emit("b-tie")) // same-time reschedule runs after queued ties
		})
		e.At(30*sim.Nanosecond, emit("c2"))
		run()
		return log
	}

	s := sim.NewScheduler()
	want := program(s, s.Run)
	eng := NewEngine(1, 0)
	got := program(&eng.Shard(0).Scheduler, eng.Run)
	if len(want) == 0 {
		t.Fatal("reference program dispatched nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard order %v, scheduler order %v", got, want)
	}
}

// ringLog runs a token-passing ring — each node a shard, each hop a
// cross-shard post at hopLat — and returns the per-node logs merged in
// (time, node) order. The same model on one shard (everything local)
// is the sequential reference.
func ringLog(shards, nodes, laps int, hopLat, lookahead sim.Time) []string {
	eng := NewEngine(shards, lookahead)
	logs := make([][]string, nodes)
	var hop func(node, count int) func()
	hop = func(node, count int) func() {
		return func() {
			sh := eng.Shard(node % shards)
			logs[node] = append(logs[node], fmt.Sprintf("n%d#%d@%v", node, count, sh.Now()))
			if count+1 >= laps*nodes {
				return
			}
			next := (node + 1) % nodes
			at := sh.Now() + hopLat
			if next%shards == node%shards {
				sh.At(at, hop(next, count+1))
			} else {
				eng.Post(node%shards, next%shards, at, hop(next, count+1))
			}
		}
	}
	eng.Shard(0).At(0, hop(0, 0))
	eng.Run()
	var merged []string
	for i := 0; i < laps*nodes; i++ {
		// One log entry lands per step in global time order; the ring has
		// one token, so concatenating per-hop is already time-ordered.
		merged = append(merged, logs[i%nodes][i/nodes])
	}
	return merged
}

// TestRingCrossShardEquivalence checks the conservative rounds end to
// end: a 6-node ring on 1, 2, 3 and 6 shards produces the identical
// event log, with the hop latency exactly at the lookahead floor.
func TestRingCrossShardEquivalence(t *testing.T) {
	const nodes, laps = 6, 5
	hop := DefaultLookahead()
	want := ringLog(1, nodes, laps, hop, 0)
	if len(want) != nodes*laps {
		t.Fatalf("reference ring dispatched %d hops, want %d", len(want), nodes*laps)
	}
	for _, shards := range []int{2, 3, 6} {
		got := ringLog(shards, nodes, laps, hop, hop)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d shards: log %v, want %v", shards, got, want)
		}
	}
}

// TestMailboxMergeTieBreak posts same-time events from several source
// shards and checks they dispatch in (time, source shard, post order).
func TestMailboxMergeTieBreak(t *testing.T) {
	eng := NewEngine(4, sim.Microsecond)
	var got []string
	at := 2 * sim.Microsecond // beyond the first window [0, 1us)
	for src := 1; src < 4; src++ {
		src := src
		eng.Shard(src).At(0, func() {
			for k := 0; k < 2; k++ {
				tag := fmt.Sprintf("s%d.%d", src, k)
				eng.Post(src, 0, at, func() { got = append(got, tag) })
			}
		})
	}
	eng.Run()
	want := "[s1.0 s1.1 s2.0 s2.1 s3.0 s3.1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestPostInsideWindowPanics pins the conservative guard: posting below
// the current window end is a lookahead violation and must panic, not
// silently corrupt the order.
func TestPostInsideWindowPanics(t *testing.T) {
	eng := NewEngine(2, sim.Microsecond)
	eng.Shard(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("post inside the window did not panic")
			}
		}()
		eng.Post(0, 1, 500*sim.Nanosecond, func() {})
	})
	eng.Run()
}

// TestEngineStepsAndAccessors covers the bookkeeping surface.
func TestEngineStepsAndAccessors(t *testing.T) {
	eng := NewEngine(3, 0)
	if eng.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", eng.Shards())
	}
	for i := 0; i < 3; i++ {
		sh := eng.Shard(i)
		if sh.ID() != i {
			t.Fatalf("shard %d reports ID %d", i, sh.ID())
		}
		sh.At(sim.Time(i+1)*sim.Nanosecond, func() {})
	}
	if eng.Shard(0).Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", eng.Shard(0).Pending())
	}
	eng.Run()
	if eng.Steps() != 3 {
		t.Fatalf("Steps() = %d, want 3", eng.Steps())
	}
}

// TestParseKind pins the flag surface.
func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{{"seq", Seq, true}, {"", Seq, true}, {"par", Par, true}, {"bogus", Seq, false}} {
		got, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if Seq.String() != "seq" || Par.String() != "par" {
		t.Errorf("Kind strings = %q/%q", Seq.String(), Par.String())
	}
}

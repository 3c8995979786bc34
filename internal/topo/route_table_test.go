package topo

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// routeKey is one (src, dst, network) triple.
type routeKey struct{ src, dst, net int }

// allRouteKeys lists every ordered node pair on both planes.
func allRouteKeys(tp *Topology) []routeKey {
	keys := make([]routeKey, 0, tp.Nodes()*tp.Nodes()*2)
	for src := 0; src < tp.Nodes(); src++ {
		for dst := 0; dst < tp.Nodes(); dst++ {
			for _, net := range []int{NetworkA, NetworkB} {
				keys = append(keys, routeKey{src, dst, net})
			}
		}
	}
	return keys
}

// TestRouteTableConcurrentFill races eight goroutines, each walking every
// triple in its own shuffled order, over one fresh System256's route
// table (run under -race). Every goroutine must see exactly the paths a
// sequential walk over a separate topology computes.
func TestRouteTableConcurrentFill(t *testing.T) {
	keys := allRouteKeys(System256())
	seq := System256()
	want := make(map[routeKey]Path, len(keys))
	for _, k := range keys {
		p, err := seq.Route(k.src, k.dst, k.net)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = p
	}

	shared := System256()
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := range errs {
		order := append([]routeKey(nil), keys...)
		rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		wg.Add(1)
		go func(g int, order []routeKey) {
			defer wg.Done()
			for _, k := range order {
				p, err := shared.Route(k.src, k.dst, k.net)
				if err != nil || !reflect.DeepEqual(p, want[k]) {
					errs[g] = "route mismatch"
					return
				}
			}
		}(g, order)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestRouteTableHitAllocatesNothing pins the memo-hit path at zero
// allocations.
func TestRouteTableHitAllocatesNothing(t *testing.T) {
	tp := System256()
	if _, err := tp.Route(0, 127, NetworkA); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tp.Route(0, 127, NetworkA); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit allocates %.1f times, want 0", allocs)
	}
}

// TestRouteTableDroppedByConnect wires a shortcut after a route has been
// memoized: the next Route must take it.
func TestRouteTableDroppedByConnect(t *testing.T) {
	tp := New("chain", 2)
	x := tp.AddCrossbar("X")
	y := tp.AddCrossbar("Y")
	z := tp.AddCrossbar("Z")
	mustConnect(tp, 0, NetworkA, x, 0, false)
	mustConnect(tp, x, 1, y, 0, false)
	mustConnect(tp, y, 1, z, 0, false)
	mustConnect(tp, z, 1, 1, NetworkA, false)
	before, err := tp.Route(0, 1, NetworkA)
	if err != nil || len(before.Hops) != 3 {
		t.Fatalf("chain route: %d hops, err %v; want 3", len(before.Hops), err)
	}
	mustConnect(tp, x, 2, z, 2, false)
	after, err := tp.Route(0, 1, NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Hops) != 2 || after.Hops[0].Out != 2 || after.Hops[1].In != 2 {
		t.Errorf("route after shortcut = %+v, want X:0->2, Z:2->1", after.Hops)
	}
}

// BenchmarkRouteSystem256Cold routes every triple of a fresh System256:
// every lookup runs the search and fills its table slot.
func BenchmarkRouteSystem256Cold(b *testing.B) {
	keys := allRouteKeys(System256())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tp := System256()
		b.StartTimer()
		for _, k := range keys {
			if _, err := tp.Route(k.src, k.dst, k.net); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRouteSystem256Warm routes every triple of a System256 whose
// table is already full: every lookup is a memo hit.
func BenchmarkRouteSystem256Warm(b *testing.B) {
	tp := System256()
	keys := allRouteKeys(tp)
	for _, k := range keys {
		if _, err := tp.Route(k.src, k.dst, k.net); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if _, err := tp.Route(k.src, k.dst, k.net); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7} {
			counts := make([]int32, n)
			var order []int
			each(n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
				if procs == 1 {
					order = append(order, i)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
			// One processor: a single worker takes the indexes in order.
			for i, got := range order {
				if got != i {
					t.Errorf("GOMAXPROCS 1, n %d: call %d ran index %d", n, i, got)
				}
			}
		}
	}
}

package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("dispatch order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v after run, want 30", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps() = %d, want 3", s.Steps())
	}
}

func TestSchedulerFIFOAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var n int
	s.At(10, func() { n++ })
	s.At(20, func() { n++ })
	s.At(30, func() { n++ })
	s.RunUntil(20)
	if n != 2 {
		t.Errorf("RunUntil(20) dispatched %d events, want 2", n)
	}
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	// RunUntil advances time even past the last event.
	s.RunUntil(100)
	if s.Now() != 100 || n != 3 {
		t.Errorf("after RunUntil(100): now=%v n=%d", s.Now(), n)
	}
}

func TestSchedulerRunWhile(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i, func() { count++ })
	}
	alive := s.RunWhile(func() bool { return count < 4 })
	if !alive {
		t.Error("RunWhile reported queue exhausted")
	}
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
	// Draining the rest.
	if s.RunWhile(func() bool { return true }) {
		t.Error("RunWhile should report exhaustion")
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestSchedulerNextAt(t *testing.T) {
	s := NewScheduler()
	if at, ok := s.NextAt(); ok {
		t.Errorf("NextAt on an empty queue = %v, true", at)
	}
	s.At(30, func() {})
	s.At(10, func() {})
	if at, ok := s.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v, %v; want 10, true", at, ok)
	}
	if s.Now() != 0 || s.Pending() != 2 {
		t.Errorf("NextAt moved the clock to %v or consumed events (%d pending)", s.Now(), s.Pending())
	}
}

// TestSchedulerRunBefore pins the window loop: the bound is strict, the
// clock stays at the last event dispatched, equal-time events keep
// scheduling order, and an event scheduled inside the window fires in
// the same call.
func TestSchedulerRunBefore(t *testing.T) {
	s := NewScheduler()
	var order []string
	log := func(tag string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", tag, s.Now())) }
	}
	s.At(10, log("a"))
	s.At(10, func() {
		log("b")()
		s.After(5, log("inner")) // at 15, inside the window
		s.At(20, log("edge"))    // at the bound: must wait
	})
	s.At(10, log("c"))
	s.At(20, log("late"))
	s.RunBefore(20)
	if got, want := fmt.Sprint(order), "[a@10ps b@10ps c@10ps inner@15ps]"; got != want {
		t.Errorf("RunBefore(20) dispatched %s, want %s", got, want)
	}
	if s.Now() != 15 {
		t.Errorf("Now() = %v after RunBefore(20), want 15 (the last event, not the bound)", s.Now())
	}
	if s.Steps() != 4 || s.Pending() != 2 {
		t.Errorf("Steps() = %d, Pending() = %d; want 4 and 2", s.Steps(), s.Pending())
	}
	if at, ok := s.NextAt(); !ok || at != 20 {
		t.Errorf("NextAt = %v, %v; want 20, true", at, ok)
	}
	s.RunBefore(20)
	if s.Steps() != 4 {
		t.Errorf("a second RunBefore(20) dispatched %d more events", s.Steps()-4)
	}
	s.RunBefore(MaxTime)
	if got, want := fmt.Sprint(order[4:]), "[late@20ps edge@20ps]"; got != want {
		t.Errorf("after the bound: %s, want %s", got, want)
	}
}

// Property: any batch of events dispatches in nondecreasing time order.
func TestSchedulerMonotoneProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, raw := range times {
			at := Time(raw)
			s.At(at, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceQueuing(t *testing.T) {
	var r Resource
	// Back-to-back acquisitions queue up.
	if start := r.Acquire(0, 10); start != 0 {
		t.Errorf("first start = %v, want 0", start)
	}
	if start := r.Acquire(0, 10); start != 10 {
		t.Errorf("second start = %v, want 10", start)
	}
	// A later arrival with idle gap starts immediately.
	if start := r.Acquire(100, 10); start != 100 {
		t.Errorf("idle-gap start = %v, want 100", start)
	}
	if r.Busy() != 30 {
		t.Errorf("Busy() = %v, want 30", r.Busy())
	}
	if r.Uses() != 3 {
		t.Errorf("Uses() = %d, want 3", r.Uses())
	}
	if got := r.Utilization(110); got < 0.272 || got > 0.273 {
		t.Errorf("Utilization = %g, want ~0.2727", got)
	}
	if w := r.AcquireWait(100, 5); w != 10 {
		t.Errorf("AcquireWait = %v, want 10 (resource busy until 110)", w)
	}
	r.Reset()
	if r.Busy() != 0 || r.FreeAt() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPipelinedOverlap(t *testing.T) {
	p := Pipelined{Interval: 2, Latency: 20}
	// Three requests at t=0 complete at 20, 22, 24: initiation staggers by
	// the interval, latency overlaps.
	d1 := p.Acquire(0)
	d2 := p.Acquire(0)
	d3 := p.Acquire(0)
	if d1 != 20 || d2 != 22 || d3 != 24 {
		t.Errorf("pipelined completions = %v %v %v, want 20 22 24", d1, d2, d3)
	}
	if p.Uses() != 3 {
		t.Errorf("Uses = %d", p.Uses())
	}
	p.Reset()
	if got := p.Acquire(100); got != 120 {
		t.Errorf("after reset Acquire(100) = %v, want 120", got)
	}
}

// Property: resource never starts a request before its arrival, and
// utilization never exceeds 1 when requests arrive in order.
func TestResourceProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		var r Resource
		at := Time(0)
		for _, d := range durs {
			start := r.Acquire(at, Time(d))
			if start < at {
				return false
			}
			at = start // arrivals non-decreasing
		}
		window := r.FreeAt()
		return window == 0 || r.Utilization(window) <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

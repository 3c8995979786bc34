package sim

import "fmt"

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq breaks ties), which keeps every simulation deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap over (at, seq). It replaces
// container/heap, whose interface{} Push/Pop boxed one event per schedule
// on the hot path; the ordering is total (seq breaks every at tie), so
// sift order — and therefore pop order — is identical to the old code.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and restores the heap invariant.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // release the callback so the GC can collect it
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// Scheduler is a discrete-event simulation loop: a time-ordered queue of
// callbacks and a current simulated time. It is the engine behind the
// communication-system models (links, crossbars, network interfaces); the
// node-level CPU/cache models use the cheaper Resource timelines instead
// and only meet the Scheduler at transaction boundaries.
type Scheduler struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nsteps uint64
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Steps reports how many events have been dispatched, a cheap progress and
// regression metric for tests.
func (s *Scheduler) Steps() uint64 { return s.nsteps }

// Pending reports the number of events still queued.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a model bug and panics.
//
//pmlint:hotpath
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now)) //pmlint:allow hotpath cold panic guard for a model bug, never taken per event
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current time.
//
//pmlint:hotpath
func (s *Scheduler) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Step dispatches the next event, advancing time to it. It reports whether
// an event was dispatched.
//
//pmlint:hotpath
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.at
	s.nsteps++
	e.fn()
	return true
}

// Run dispatches events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil dispatches all events scheduled at or before t, then advances
// time to exactly t.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// NextAt reports the time of the earliest queued event, and false when the
// queue is empty.
func (s *Scheduler) NextAt() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// RunBefore dispatches every event scheduled strictly before t, including
// ones scheduled during the call, and leaves the clock at the last event
// dispatched rather than advancing it to t. It is the window loop of the
// parallel engine in internal/psim, whose barrier rounds may not move a
// shard's clock past its own events.
//
//pmlint:hotpath
func (s *Scheduler) RunBefore(t Time) {
	for len(s.queue) > 0 && s.queue[0].at < t {
		e := s.queue.pop()
		s.now = e.at
		s.nsteps++
		e.fn()
	}
}

// RunWhile dispatches events until cond reports false or the queue drains.
// It reports whether the queue still has events (i.e. the condition, not
// exhaustion, stopped the run).
func (s *Scheduler) RunWhile(cond func() bool) bool {
	for cond() {
		if !s.Step() {
			return false
		}
	}
	return true
}

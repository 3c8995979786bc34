// Package psim is the parallel discrete-event engine: the event space
// is split into shards, each its own sim.Scheduler (heap, clock and
// sequence counter), driven by worker goroutines and synchronized
// through conservative lookahead windows (null-message-free barrier
// rounds).
// Cross-shard events travel through per-pair mailboxes and are merged
// at each barrier with a deterministic (time, source shard, post
// order) tie-break, so a sharded run dispatches exactly the events a
// sequential run would — trace, metrics and stdout stay byte-identical
// to internal/sim's single queue. The pmfault and pmtrace golden
// tests pin that equivalence by running through both engines.
//
// The conservative contract: during a barrier round every shard may
// freely execute events before the round's window end, because no
// other shard can inject an event below it — the lookahead is the
// minimum latency of any cross-shard interaction. For the simulated
// interconnect that floor comes from the hardware constants: a message
// crossing a shard boundary pays at least one crossbar route setup
// plus one link byte period before it can touch another shard's state
// (DefaultLookahead). Partitions that exchange no events at all — the
// fault campaigns' independent rate rows — run with an unbounded
// window (lookahead 0), which degenerates to one round with no
// barriers: the embarrassingly-parallel fast path.
//
// A Shard embeds sim.Scheduler, so there is one event queue in the
// repository and models written against it (EARTH, the campaign
// drivers) run unchanged on a shard. Everything a shard's events touch
// must be shard-local; the pmlint --report audit (sharedstate and
// friends) is the static gate on that, and the per-row construction in
// internal/fault is the dynamic pattern: one network, one injector, one
// accounting row per shard.
package psim

import (
	"fmt"
	"sort"
	"sync"

	"powermanna/internal/link"
	"powermanna/internal/sim"
	"powermanna/internal/xbar"
)

// Kind selects the execution engine behind a campaign or tool run:
// the --engine=seq|par flag of pmfault, pmtrace and pmbench.
type Kind int

const (
	// Seq is the sequential engine: one event queue, today's default.
	Seq Kind = iota
	// Par is the sharded parallel engine in this package.
	Par
)

// String renders the CLI spelling.
func (k Kind) String() string {
	if k == Par {
		return "par"
	}
	return "seq"
}

// ParseKind maps the --engine flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "seq", "":
		return Seq, nil
	case "par":
		return Par, nil
	}
	return Seq, fmt.Errorf("psim: unknown engine %q (want seq or par)", s)
}

// DefaultLookahead is the conservative window width for node-sharded
// models: the minimum simulated latency of any cross-shard message.
// Before a message started in one window can perturb another shard it
// must at least claim a crossbar route (RouteSetup) and put its first
// byte on a wire (BytePeriod), so events inside the window are safe to
// dispatch without hearing from other shards.
func DefaultLookahead() sim.Time {
	return xbar.RouteSetup + link.BytePeriod
}

// Shard is one partition of the event space: a sim.Scheduler (private
// heap, clock, sequence counter and step count) owned by an engine.
// Model code written against the sequential scheduler runs unchanged on
// &shard.Scheduler. A shard's state — and everything its events touch —
// belongs to exactly one worker goroutine per barrier round; the engine
// is the only cross-shard channel. Run on a shard ignores the engine's
// window end, so model code may call it reentrantly from inside an event
// (EARTH's runtime does) only on an unbounded window.
type Shard struct {
	sim.Scheduler
	id int
}

// ID reports the shard's index within its engine.
func (s *Shard) ID() int { return s.id }

// runWindow is the worker loop of one barrier round: it dispatches
// every queued callback strictly below the window end. It is the
// parallel engine's event-handler root — each callback it invokes was
// scheduled through At/After or posted through a mailbox — and runs on
// at most one goroutine per shard per round.
//
//pmlint:root
func (s *Shard) runWindow(end sim.Time) { s.RunBefore(end) }

// post is one cross-shard event waiting in a mailbox: either a plain
// callback (fn) or a data payload bound for a destination-owned
// Handler. Mailbox order within a (src, dst) pair extends the
// (time, seq) tie-break across shards.
type post struct {
	at      sim.Time
	fn      func()
	h       Handler
	payload any
}

// Handler consumes cross-shard payloads on the destination shard: the
// data-not-closures discipline for models whose cross-shard messages
// carry state (the split-phase send continuations of internal/netsim).
// A Handler is owned by the destination shard; the payload it receives
// crossed the mailbox as plain data, so the static shard-safety audit
// (pmlint sharedstate) sees no source-shard captures travelling with
// it. OnPost runs on the destination shard's worker with the shard
// clock at the posted time.
type Handler interface {
	OnPost(s *Shard, payload any)
}

// Engine coordinates shards through conservative barrier rounds. One
// round: pick the globally earliest pending event, extend it by the
// lookahead into a window, let every shard dispatch its sub-window
// events concurrently, then merge the mailboxes deterministically and
// repeat. With lookahead 0 the window is unbounded — a single round
// with no barriers, the right mode for partitions that exchange no
// events (campaign rate rows).
type Engine struct {
	shards    []*Shard
	lookahead sim.Time
	// horizon is the current round's window end (sim.MaxTime when the
	// window is unbounded); Post enforces the conservative contract
	// against it.
	horizon sim.Time
	// mail[src*len(shards)+dst] buffers the posts src made for dst
	// during the current round; only src's worker appends to it, so
	// rounds need no locks — the barrier is the synchronization.
	mail [][]post
}

// NewEngine builds an engine with n shards. A lookahead > 0 sets the
// conservative window width for models with cross-shard traffic
// (DefaultLookahead derives the interconnect's floor); lookahead 0
// means the shards are independent partitions and the whole run is one
// unbounded window.
func NewEngine(n int, lookahead sim.Time) *Engine {
	if n < 1 {
		panic("psim: engine needs at least one shard")
	}
	e := &Engine{
		shards:    make([]*Shard, n),
		lookahead: lookahead,
		horizon:   sim.MaxTime,
		mail:      make([][]post, n*n),
	}
	for i := range e.shards {
		e.shards[i] = &Shard{id: i}
	}
	return e
}

// Lookahead reports the engine's conservative window width.
func (e *Engine) Lookahead() sim.Time { return e.lookahead }

// Shards reports the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Steps reports the total events dispatched across all shards.
func (e *Engine) Steps() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Steps()
	}
	return n
}

// Post schedules fn on shard dst at absolute time t, from model code
// running on shard src during a round. The conservative contract: t
// must lie at or beyond the current window's end, because dst may
// already have dispatched past any earlier time — violating it is a
// lookahead bug in the model (its cross-shard latency is smaller than
// the engine's lookahead) and panics.
//
//pmlint:hotpath
func (e *Engine) Post(src, dst int, t sim.Time, fn func()) {
	if t < e.horizon {
		panic(fmt.Sprintf("psim: shard %d posting to shard %d at %v inside the window ending %v: model latency below the configured lookahead", src, dst, t, e.horizon)) //pmlint:allow hotpath cold panic guard for a lookahead violation, never taken per event
	}
	box := &e.mail[src*len(e.shards)+dst]
	*box = append(*box, post{at: t, fn: fn})
}

// PostPayload schedules payload for delivery to the destination-owned
// handler h on shard dst at absolute time t — the data-not-closures
// variant of Post for cross-shard messages that carry model state. The
// same conservative contract applies: t at or beyond the window end.
//
//pmlint:hotpath
func (e *Engine) PostPayload(src, dst int, t sim.Time, h Handler, payload any) {
	if t < e.horizon {
		panic(fmt.Sprintf("psim: shard %d posting payload to shard %d at %v inside the window ending %v: model latency below the configured lookahead", src, dst, t, e.horizon)) //pmlint:allow hotpath cold panic guard for a lookahead violation, never taken per event
	}
	box := &e.mail[src*len(e.shards)+dst]
	*box = append(*box, post{at: t, h: h, payload: payload})
}

// nextEventTime reports the earliest pending event across shards.
func (e *Engine) nextEventTime() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, s := range e.shards {
		if at, ok := s.NextAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// Run drives barrier rounds until every heap and mailbox is empty.
// Each round dispatches shards concurrently — one worker goroutine per
// shard with work — and merges the mailboxes single-threaded at the
// barrier, so the only cross-goroutine data flow is fork at the round
// start and join at the barrier.
func (e *Engine) Run() {
	for {
		next, ok := e.nextEventTime()
		if !ok {
			return
		}
		end := sim.MaxTime
		if e.lookahead > 0 {
			end = next + e.lookahead
		}
		e.horizon = end
		e.round(end)
		e.horizon = sim.MaxTime
		e.deliver()
	}
}

// round runs one window: every shard with an event below end dispatches
// it on its own worker goroutine, and the round ends when all workers
// reach the barrier. A single-shard engine runs on the calling
// goroutine — no goroutines, so the sequential configuration of a
// parallel tool run stays literally sequential.
func (e *Engine) round(end sim.Time) {
	if len(e.shards) == 1 {
		e.shards[0].runWindow(end)
		return
	}
	var wg sync.WaitGroup
	for _, s := range e.shards {
		if at, ok := s.NextAt(); !ok || at >= end {
			continue
		}
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.runWindow(end)
		}(s)
	}
	wg.Wait()
}

// deliver merges the round's mailboxes into the destination heaps with
// the deterministic cross-shard tie-break: ascending (time, source
// shard, post order). Destination sequence numbers are assigned in
// that merged order, so the (at, seq) heap order downstream — and with
// it every simulated outcome — is a pure function of the model, never
// of goroutine timing.
func (e *Engine) deliver() {
	n := len(e.shards)
	type delivery struct {
		at  sim.Time
		src int
		fn  func()
	}
	for dst := 0; dst < n; dst++ {
		var merged []delivery
		s := e.shards[dst]
		for src := 0; src < n; src++ {
			box := &e.mail[src*n+dst]
			for _, p := range *box {
				fn := p.fn
				if fn == nil {
					h, payload := p.h, p.payload
					fn = func() { h.OnPost(s, payload) }
				}
				merged = append(merged, delivery{at: p.at, src: src, fn: fn})
			}
			*box = (*box)[:0]
		}
		if len(merged) == 0 {
			continue
		}
		// Stable sort: posts from one source stay in posting order, the
		// third key of the tie-break.
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].at != merged[j].at {
				return merged[i].at < merged[j].at
			}
			return merged[i].src < merged[j].src
		})
		for _, p := range merged {
			s.At(p.at, p.fn)
		}
	}
}

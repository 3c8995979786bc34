// The wormhole model: one header walk, one circuit claim and one CRC
// verdict, shared by both executors of the failover protocol. The
// synchronous Network.send walks a whole path in one call; the
// partitioned psend walks the source-owned and the destination-owned
// halves of a split route on their own shards. Both walk hop ranges of
// the same path with the same function, and apply the same claims.
//
// Three things differ between the executors, and each is a parameter:
//
//   - open holds: a partitioned walk parks on a resource a split send's
//     source half holds open; the synchronous path passes no holds, so
//     its lookups miss;
//   - the teardown time of a failed attempt, supplied by the caller
//     (entry + AckTimeout on the synchronous path; psend floors it at
//     its shard's clock first);
//   - hop-claim accounting, a property of the ledger: the synchronous
//     Network claims through xbar.HoldOutput, whose Opened/Blocked
//     counters feed the crossbar tables and the blocking experiment; a
//     partitioned shard claims through xbar.ClaimOutput and its own
//     arbitration instruments, because one crossbar's outputs span
//     shards.
package netsim

import (
	"fmt"

	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/xbar"
)

// ledger is where one executor's sends are accounted: the synchronous
// Network's, or one partitioned shard's.
type ledger struct {
	// planes accumulates the per-plane degraded-mode counters of the
	// failover protocol (failover.go).
	planes [ni.LinksPerNode]PlaneCounters
	// met holds the resolved metrics instruments (netmetrics.go); the
	// zero value is the "metrics off" state.
	met netInstruments
	// rec, when non-nil, records per-message spans, circuit holds and
	// failover attempts.
	rec *trace.Recorder
	// shard marks a partitioned shard's ledger: its hop claims leave the
	// crossbar's shared counters alone and land their arbitration waits
	// and circuit spans in arbWait, planeWait and rec.
	shard     bool
	arbWait   *metrics.Histogram
	planeWait [ni.LinksPerNode]*metrics.Histogram
}

// wireClaim and hopClaim are the peeked reservations of one header walk:
// held to the last byte when the circuit completes, to the teardown when
// the attempt fails, or open while a split send awaits its verdict.
type wireClaim struct {
	w     *link.Wire
	key   resKey
	start sim.Time
	bytes int
}

type hopClaim struct {
	ord, out         int
	requested, start sim.Time
}

// walkRes is the outcome of one header walk.
type walkRes struct {
	outcome walkOutcome
	// parked is the open-held resource a parked walk stopped at.
	parked resKey
	// at is when a failed walk's condition arose; cut tells a severed
	// wire from a setup timeout.
	at  sim.Time
	cut bool
	// head is the header time after the walk: when the circuit stands
	// (a walk to the destination) or when the header reaches crossbar hi.
	head sim.Time
	// first and last are the body's arrival at the destination (walks to
	// the destination only).
	first, last sim.Time
	// wires and hops are the peeked claims, appended to the slices the
	// caller supplied.
	wires []wireClaim
	hops  []hopClaim
}

type walkOutcome uint8

const (
	walkOK walkOutcome = iota
	walkParked
	walkFailed
)

// walk is the wormhole header walk over hops [lo, hi) of path, starting
// at head and peeking at each resource's free time; it claims nothing.
// Hop i is the wire into crossbar i, then the arbitration for its
// output, where the crossbar consumes one route byte and spends the
// route setup time. A walk from lo > 0 starts at crossbar lo's output
// arbitration: the walk before it crossed the input wire. (Split points
// are never 0 — the source's leaf crossbar is the source's own.) A walk
// to hi < len(path.Hops) stops when the header reaches crossbar hi; a
// walk to len(path.Hops) crosses the last wire into the destination and
// times the body. A whole-path send is the range [0, len(path.Hops)).
//
// The walk stops early at a resource in open (parked), at a severed
// wire (failed, cut), or after waiting beyond setupTimeout at a busy
// resource (failed). The sender's own uplink is exempt from the setup
// timeout: a wait there is the send FIFO draining earlier traffic, which
// the driver watches through the status register (Section 3.3) instead
// of declaring the plane dead. A severed uplink is still caught by
// DeadAt, a wedged NI by ReadyAt's stall windows.
//
//pmlint:hotpath
func (n *Network) walk(path topo.Path, lo, hi int, head sim.Time, wireBytes int, setupTimeout sim.Time,
	open map[resKey][]*pleg, wires []wireClaim, hops []hopClaim) walkRes {

	r := walkRes{wires: wires, hops: hops}
	byteTime := n.linkCfg.TransferTime(1)
	for i := lo; ; i++ {
		if i > lo || i == 0 {
			dev, port := path.Src, path.Network
			if i > 0 {
				dev, port = n.topo.Nodes()+path.Hops[i-1].Xbar, path.Hops[i-1].Out
			}
			key := wireRes(dev, port)
			if _, held := open[key]; held {
				r.outcome, r.parked = walkParked, key
				return r
			}
			w := n.wire(dev, port, 0)
			start := sim.Max(head, w.FreeAt())
			if w.DeadAt(start) {
				r.outcome, r.at, r.cut = walkFailed, start, true
				return r
			}
			if setupTimeout > 0 && i > 0 && start-head > setupTimeout {
				r.outcome, r.at = walkFailed, head+setupTimeout
				return r
			}
			// Every crossbar before this wire consumed one route byte.
			r.wires = append(r.wires, wireClaim{w: w, key: key, start: start, bytes: wireBytes - i})
			arrive := start + n.linkCfg.PropagationDelay + byteTime
			if i == len(path.Hops) {
				r.head, r.first = head, arrive
				r.last = arrive + n.linkCfg.TransferTime(wireBytes-len(path.RouteBytes))
				return r
			}
			if path.Hops[i].AsyncIn {
				arrive += n.trans.Latency
			}
			head = arrive
		}
		if i == hi {
			r.head = head
			return r
		}
		hop := path.Hops[i]
		key := hopRes(hop.Xbar, hop.Out)
		if _, held := open[key]; held {
			r.outcome, r.parked = walkParked, key
			return r
		}
		start := sim.Max(head, n.xbars[hop.Xbar].OutputFreeAt(hop.Out))
		if setupTimeout > 0 && start-head > setupTimeout {
			r.outcome, r.at = walkFailed, head+setupTimeout
			return r
		}
		r.hops = append(r.hops, hopClaim{ord: hop.Xbar, out: hop.Out, requested: head, start: start})
		head = start + xbar.RouteSetup
	}
}

// hold claims walked resources until `until`: a completed circuit's to
// its last byte, a failed attempt's partial circuit to its teardown (the
// sender's detection, when the driver gives up and the switches reclaim
// the channels). Resources the header reached only at or after `until`
// are not claimed — the header never got there.
//
//pmlint:hotpath
func (n *Network) hold(l *ledger, wires []wireClaim, hops []hopClaim, until sim.Time, plane int) {
	for _, c := range wires {
		if c.start < until {
			c.w.Hold(c.start, until, c.bytes)
		}
	}
	for _, c := range hops {
		if c.start >= until {
			continue
		}
		x := n.xbars[c.ord]
		if !l.shard {
			x.HoldOutput(c.requested, c.start, until, c.out)
			continue
		}
		x.ClaimOutput(c.start, until, c.out)
		if c.start > c.requested {
			l.arbWait.ObserveTime(c.start - c.requested)
			l.planeWait[plane].ObserveTime(c.start - c.requested)
		}
		if l.rec.Enabled() {
			track := trace.XbarPortTrack(c.ord, c.out)
			if c.start > c.requested {
				l.rec.Span(track, "xbar", "arb-wait", c.requested, c.start)
			}
			l.rec.Span(track, "xbar", "circuit", c.start, until)
		}
	}
}

// complete finishes a walk that reached the destination: it renders the
// CRC verdict over every wire the message crossed (upstream carries a
// split send's source-half wires), holds the walk's resources until the
// last byte and records the message's spans — the envelope, the setup
// walk from entry, the body stream and the CRC-corrupt marker. A wire
// severed while the body streams truncates the message and a corruption
// window garbles it; both surface only at the destination's CRC check,
// so the circuit is claimed either way. It reports whether the frame
// arrived corrupt.
//
//pmlint:hotpath
func (n *Network) complete(l *ledger, path topo.Path, r *walkRes, upstream []wireClaim, entry sim.Time, payloadBytes int) bool {
	bad := corrupted(upstream, r.last) || corrupted(r.wires, r.last)
	n.hold(l, r.wires, r.hops, r.last, path.Network)
	if l.rec.Enabled() {
		track, cat := trace.NodeTrack(path.Src), "netsim"
		if n.osSending {
			track, cat = trace.OSTrack(), "os"
		}
		l.rec.SpanArg(track, cat, "msg", entry, r.last,
			fmt.Sprintf("%d->%d plane %s, %dB", path.Src, path.Dst, planeName(path.Network), payloadBytes)) //pmlint:allow hotpath trace-gated formatting, tracing runs pay for the labels
		l.rec.Span(track, cat, "setup", entry, r.head)
		l.rec.Span(track, cat, "stream", r.head, r.last)
		if bad {
			l.rec.Instant(track, cat, "crc-corrupt", r.last)
		}
	}
	return bad
}

// corrupted is the CRC verdict over wires a message crossed until its
// last byte: one severed mid-stream or inside a corruption window fails
// it.
//
//pmlint:hotpath
func corrupted(wires []wireClaim, last sim.Time) bool {
	for _, c := range wires {
		if cut, ok := c.w.CutTime(); ok && cut > c.start && cut <= last {
			return true
		}
		if c.w.CorruptedIn(c.start, last) {
			return true
		}
	}
	return false
}

package netsim

import (
	"fmt"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// system256Shards are the shard counts that align with System256's
// 16 leaf groups of 8 nodes.
var system256Shards = []int{1, 2, 4, 8, 16}

// partSend runs one message through a fresh partitioned System256 and
// returns its Delivery. fault applies wire faults to both the
// partitioned and the legacy network identically.
func partSend(t *testing.T, shards int, src, dst, bytes int, fault func(*Network)) Delivery {
	t.Helper()
	pn, err := NewPartitioned(topo.System256(), shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	if fault != nil {
		fault(pn.Network())
	}
	var got Delivery
	done := false
	sh := pn.Shard(pn.ShardOf(src))
	sh.At(0, func() {
		if err := pn.SendAsync(src, dst, bytes, nil, 0, func(d Delivery) { got = d; done = true }); err != nil {
			t.Errorf("SendAsync: %v", err)
		}
	})
	pn.Run()
	if !done {
		t.Fatalf("shards=%d: send %d->%d never completed", shards, src, dst)
	}
	return got
}

// legacySend runs the same message through the synchronous path.
func legacySend(t *testing.T, src, dst, bytes int, fault func(*Network)) Delivery {
	t.Helper()
	n := New(topo.System256())
	if fault != nil {
		fault(n)
	}
	d, err := n.MustTransport(src, DefaultFailover()).Send(0, dst, bytes)
	if err != nil {
		t.Fatalf("legacy send %d->%d: %v", src, dst, err)
	}
	return d
}

// TestPartitionedSendMatchesLegacy pins the partitioned split-phase
// send to the synchronous protocol, message by message: with no
// contention the two paths must produce identical Delivery records —
// same transit times, same plane, same attempt and failover accounting
// — for intra-group, cross-group and faulted routes, at every aligned
// shard count and under both dispatch modes.
func TestPartitionedSendMatchesLegacy(t *testing.T) {
	cutUplink := func(n *Network) {
		// Sever the source's plane-A uplink just after the header passes
		// its entry check: failover to plane B after one ack timeout.
		n.CutWire(0, topo.NetworkA, 100*sim.Nanosecond)
	}
	cutFarSide := func(n *Network) {
		// Sever the destination-side leaf-to-node wire of 0->13 plane A
		// before the run: the walk fails on the destination half.
		path, err := n.Topology().Route(0, 13, topo.NetworkA)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		last := path.Hops[len(path.Hops)-1]
		n.CutWire(n.Topology().Nodes()+last.Xbar, last.Out, 0)
	}
	corruptFarSide := func(n *Network) {
		path, err := n.Topology().Route(0, 13, topo.NetworkA)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		last := path.Hops[len(path.Hops)-1]
		n.CorruptWire(n.Topology().Nodes()+last.Xbar, last.Out, 0, 20*sim.Microsecond)
	}
	cases := []struct {
		name     string
		src, dst int
		bytes    int
		fault    func(*Network)
	}{
		{"intra-group", 0, 5, 256, nil},
		{"cross-group", 0, 13, 256, nil},
		{"far-cross-shard", 3, 120, 4096, nil},
		{"uplink-cut-failover", 0, 13, 256, cutUplink},
		{"dst-cut-failover", 0, 13, 256, cutFarSide},
		{"dst-crc-retry", 0, 13, 256, corruptFarSide},
	}
	for _, tc := range cases {
		want := legacySend(t, tc.src, tc.dst, tc.bytes, tc.fault)
		for _, shards := range system256Shards {
			got := partSend(t, shards, tc.src, tc.dst, tc.bytes, tc.fault)
			if got != want {
				t.Errorf("%s shards=%d:\n got %+v\nwant %+v", tc.name, shards, got, want)
			}
		}
	}
}

// timedSend is one message of a multi-send protocol sequence.
type timedSend struct {
	at       sim.Time
	src, dst int
}

// sendRun is everything a multi-send sequence leaves behind: each
// message's outcome, both planes' counters, the metrics dump and the
// timeline in trace.Merge's canonical order.
type sendRun struct {
	deliveries []Delivery
	planes     [2]PlaneCounters
	mets       string
	events     []trace.Event
}

// legacySequence runs the sends in order through one network's
// long-lived transports, so the plane-down cache carries state from
// message to message. A nil fault leaves the network clean.
func legacySequence(t testing.TB, sends []timedSend, fault func(*Network)) sendRun {
	t.Helper()
	n := New(topo.System256())
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	rec := trace.NewRecorder()
	n.SetRecorder(rec)
	if fault != nil {
		fault(n)
	}
	tps := map[int]*Transport{}
	var run sendRun
	for _, s := range sends {
		tp := tps[s.src]
		if tp == nil {
			tp = n.MustTransport(s.src, DefaultFailover())
			tps[s.src] = tp
		}
		d, err := tp.Send(s.at, s.dst, 256)
		if err != nil {
			t.Fatalf("legacy send %+v: %v", s, err)
		}
		run.deliveries = append(run.deliveries, d)
	}
	run.planes = [2]PlaneCounters{n.Plane(0), n.Plane(1)}
	run.mets = reg.Render()
	canon := trace.NewRecorder()
	trace.Merge(canon, rec)
	run.events = canon.Events()
	return run
}

// partSequence runs the same sends through one partitioned network,
// each issued by an event at its send time on the source's shard.
func partSequence(t testing.TB, shards int, sends []timedSend, fault func(*Network)) sendRun {
	t.Helper()
	pn, err := NewPartitioned(topo.System256(), shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	reg := metrics.NewRegistry()
	pn.SetMetrics(reg)
	rec := trace.NewRecorder()
	pn.SetRecorder(rec)
	if fault != nil {
		fault(pn.Network())
	}
	run := sendRun{deliveries: make([]Delivery, len(sends))}
	done := make([]bool, len(sends))
	for i, s := range sends {
		i, s := i, s
		pn.Shard(pn.ShardOf(s.src)).At(s.at, func() {
			if err := pn.SendAsync(s.src, s.dst, 256, nil, s.at, func(d Delivery) {
				run.deliveries[i], done[i] = d, true
			}); err != nil {
				t.Errorf("SendAsync %+v: %v", s, err)
			}
		})
	}
	pn.Run()
	for i, ok := range done {
		if !ok {
			t.Fatalf("shards=%d: send %+v never completed", shards, sends[i])
		}
	}
	run.planes = [2]PlaneCounters{pn.Plane(0), pn.Plane(1)}
	run.mets = reg.Render()
	run.events = rec.Events()
	return run
}

// diffRuns reports the first way two sequence runs disagree, or "".
func diffRuns(got, want sendRun) string {
	for i := range want.deliveries {
		if got.deliveries[i] != want.deliveries[i] {
			return fmt.Sprintf("send %d:\n got %+v\nwant %+v", i, got.deliveries[i], want.deliveries[i])
		}
	}
	if got.planes != want.planes {
		return fmt.Sprintf("plane counters:\n got %+v\nwant %+v", got.planes, want.planes)
	}
	if got.mets != want.mets {
		return fmt.Sprintf("metrics diverged:\n got %s\nwant %s", got.mets, want.mets)
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("trace length: got %d want %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			return fmt.Sprintf("trace event %d:\n got %+v\nwant %+v", i, got.events[i], want.events[i])
		}
	}
	return ""
}

// TestPartitionedMultiSendMatchesLegacy pins the failover protocol
// across message boundaries: a sequence of non-overlapping sends from
// one node exercises the plane-down cache (skip, reprobe, recovery),
// the both-planes-failed outcome, the FIFO-stall abandon, the CRC retry
// budget and the end of the retry rounds on both executors; two clean
// cases pin the intra-group and the split cross-group walk. Every
// Delivery, both planes' counters, the metrics dump and the canonical
// timeline must agree at every aligned shard count.
func TestPartitionedMultiSendMatchesLegacy(t *testing.T) {
	lastWire := func(n *Network, src, dst int) (int, int) {
		path, err := n.Topology().Route(src, dst, topo.NetworkA)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		last := path.Hops[len(path.Hops)-1]
		return n.Topology().Nodes() + last.Xbar, last.Out
	}
	cases := []struct {
		name  string
		fault func(*Network)
		sends []timedSend
		// exercised checks the legacy run took the path the case pins.
		exercised func(sendRun) bool
	}{
		{"clean-intra-group", nil,
			[]timedSend{{0, 0, 5}},
			func(r sendRun) bool { return r.deliveries[0].Attempts == 1 && !r.deliveries[0].Retried }},
		{"clean-cross-group", nil,
			[]timedSend{{0, 0, 13}, {10 * sim.Microsecond, 3, 120}},
			func(r sendRun) bool {
				return r.planes[0].Delivered == 2 && r.planes[0].Attempts == 2 && r.planes[1].Attempts == 0
			}},
		{"cache-skip-then-reprobe",
			func(n *Network) { n.CutWire(0, topo.NetworkA, 100*sim.Nanosecond) },
			[]timedSend{{0, 0, 13}, {50 * sim.Microsecond, 0, 13}, {100 * sim.Microsecond, 0, 5}, {400 * sim.Microsecond, 0, 13}},
			func(r sendRun) bool {
				last := r.deliveries[len(r.deliveries)-1]
				return r.planes[0].SkippedDown == 2 && last.SkippedDown == 0 && last.Attempts == 2
			}},
		{"both-planes-cut",
			func(n *Network) {
				n.CutWire(0, topo.NetworkA, 0)
				n.CutWire(0, topo.NetworkB, 0)
			},
			[]timedSend{{0, 0, 13}, {60 * sim.Microsecond, 0, 13}},
			func(r sendRun) bool { return r.deliveries[0].Failed && r.deliveries[1].Failed }},
		{"fifo-stall-abandon",
			func(n *Network) { n.NI(0).Links[topo.NetworkA].Stall(0, 40*sim.Microsecond) },
			[]timedSend{{0, 0, 13}, {30 * sim.Microsecond, 0, 13}},
			func(r sendRun) bool { return r.planes[0].Stalled == 1 && r.planes[0].SetupTimeouts == 1 }},
		{"crc-budget-exhausted",
			func(n *Network) {
				dev, port := lastWire(n, 0, 13)
				n.CorruptWire(dev, port, 0, 200*sim.Microsecond)
			},
			[]timedSend{{0, 0, 13}, {80 * sim.Microsecond, 0, 13}},
			func(r sendRun) bool { return r.planes[0].CRCRetries == 1 && r.planes[0].FailedOver == 1 }},
		{"retries-end-on-hard-planes",
			// Plane A soft-fails (wedged FIFO), plane B is cut; the retry
			// round finds A cut too, and the next round, with only hard-down
			// planes left, ends the send.
			func(n *Network) {
				n.NI(0).Links[topo.NetworkA].Stall(0, 15*sim.Microsecond)
				n.CutWire(0, topo.NetworkA, 15*sim.Microsecond)
				n.CutWire(0, topo.NetworkB, 0)
			},
			[]timedSend{{0, 0, 13}},
			func(r sendRun) bool {
				d := r.deliveries[0]
				return d.Failed && d.Attempts == 3 && r.planes[0].SetupTimeouts == 1 && r.planes[0].LinkDown == 1
			}},
	}
	for _, tc := range cases {
		want := legacySequence(t, tc.sends, tc.fault)
		if !tc.exercised(want) {
			t.Fatalf("%s: the sequence misses the path it pins: %+v %+v", tc.name, want.deliveries, want.planes)
		}
		for _, shards := range system256Shards {
			got := partSequence(t, shards, tc.sends, tc.fault)
			if diff := diffRuns(got, want); diff != "" {
				t.Errorf("%s shards=%d: %s", tc.name, shards, diff)
			}
		}
	}
}

// partBurst is a contended workload: every node sends a first wave to a
// fixed permutation target at t=0 and a second wave back to its group
// neighbourhood at 2 µs — enough same-time cross-group traffic to
// exercise canonical drains, open holds and parked walkers.
func partBurst(t *testing.T, shards int) (deliveries []Delivery, arrivals []sim.Time, planes [2]PlaneCounters, mets string, events []trace.Event) {
	t.Helper()
	top := topo.System256()
	pn, err := NewPartitioned(top, shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	reg := metrics.NewRegistry()
	pn.SetMetrics(reg)
	rec := trace.NewRecorder()
	pn.SetRecorder(rec)
	// A couple of wire faults so failover and CRC paths run contended.
	pn.Network().CutWire(9, topo.NetworkA, 500*sim.Nanosecond)
	pn.Network().CorruptWire(40, topo.NetworkA, 0, 10*sim.Microsecond)

	nodes := top.Nodes()
	deliveries = make([]Delivery, 2*nodes)
	arrivals = make([]sim.Time, nodes)
	pn.OnDeliver(func(src, dst int, payload any, first, last sim.Time) {
		if last > arrivals[dst] {
			arrivals[dst] = last
		}
	})
	for n := 0; n < nodes; n++ {
		n := n
		dst1 := (n*37 + 13) % nodes
		if dst1 == n {
			dst1 = (dst1 + 1) % nodes
		}
		dst2 := (n + 9) % nodes
		sh := pn.Shard(pn.ShardOf(n))
		sh.At(0, func() {
			if err := pn.SendAsync(n, dst1, 512, nil, 0, func(d Delivery) { deliveries[n] = d }); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
		sh.At(2*sim.Microsecond, func() {
			if err := pn.SendAsync(n, dst2, 128, nil, 2*sim.Microsecond, func(d Delivery) { deliveries[nodes+n] = d }); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
	}
	pn.Run()
	return deliveries, arrivals, [2]PlaneCounters{pn.Plane(0), pn.Plane(1)}, reg.Render(), rec.Events()
}

// TestPartitionedBurstDeterministicAcrossShards pins the load-bearing
// invariant of the partitioned datapath: the event program is a pure
// function of the model, so every aligned shard count produces
// identical deliveries, arrival times, plane counters, metrics and
// merged traces for the same contended workload.
func TestPartitionedBurstDeterministicAcrossShards(t *testing.T) {
	refD, refA, refP, refM, refE := partBurst(t, 1)
	for _, d := range refD {
		if d.Done == 0 && !d.Failed {
			t.Fatalf("burst left an unfinished send: %+v", d)
		}
	}
	if refP[0].Delivered+refP[1].Delivered == 0 {
		t.Fatalf("burst delivered nothing")
	}
	if refP[1].FailedOver == 0 && refP[0].FailedOver == 0 {
		t.Fatalf("burst faults caused no failovers")
	}
	for _, shards := range system256Shards[1:] {
		name := fmt.Sprintf("shards=%d", shards)
		d, a, p, m, e := partBurst(t, shards)
		for i := range refD {
			if d[i] != refD[i] {
				t.Fatalf("%s: delivery %d diverged:\n got %+v\nwant %+v", name, i, d[i], refD[i])
			}
		}
		for i := range refA {
			if a[i] != refA[i] {
				t.Errorf("%s: arrival at node %d diverged: got %v want %v", name, i, a[i], refA[i])
			}
		}
		if p != refP {
			t.Errorf("%s: plane counters diverged:\n got %+v\nwant %+v", name, p, refP)
		}
		if m != refM {
			t.Errorf("%s: metrics diverged", name)
		}
		if len(e) != len(refE) {
			t.Fatalf("%s: trace length diverged: got %d want %d", name, len(e), len(refE))
		}
		for i := range e {
			if e[i] != refE[i] {
				t.Fatalf("%s: trace event %d diverged:\n got %+v\nwant %+v", name, i, e[i], refE[i])
			}
		}
	}
}

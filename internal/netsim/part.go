// Node-partitioned datapath: the split-phase send machinery that routes
// every inter-node message through psim cross-shard mailboxes.
//
// The synchronous path (Network.send) walks a whole wormhole transit in
// one call, which is only sound when one goroutine owns the entire
// network. A PartNetwork carves the same network across psim shards —
// contiguous node groups, resource ownership per topo.Partition — and
// splits each send into a local and a remote phase, both running the
// one wormhole walk (wormhole.go) over their hop range: the source shard
// walks the source-owned prefix of the route (its own uplink, its leaf
// crossbar's outputs, the leaf-to-central wire) and posts the remainder
// as a cross-shard event at the time the header reaches the central
// crossbar; the destination shard walks the destination-owned suffix,
// completes the circuit (CRC verdict included), and posts the verdict
// back. Every cross-shard hop rides a psim mailbox as plain data
// (psim.Handler payloads), never a closure over source-shard state.
//
// Determinism contract — the event program is independent of the shard
// count. Two mechanisms enforce it:
//
//   - Sends split at the topology's grain (topo.GroupPartition: one
//     group per leaf crossbar), not at the user's shard boundary. A
//     cross-group send always splits at the central crossbar's output,
//     whether both groups share a shard (the remote leg is a local
//     event) or not (it crosses a mailbox); an intra-group send never
//     splits. Shard count then only decides event placement, and psim's
//     deterministic mailbox merge makes placement unobservable.
//   - All walk attempts are buffered and processed by a canonical drain
//     event one picosecond after they were produced, sorted by message
//     id. Same-timestamp walkers therefore claim resources in an order
//     that is a pure function of the model (issue time, then message
//     id), not of event sequence interleavings. Walk arithmetic uses
//     the walker's carried model times, so the picosecond offset never
//     distorts a transit.
//
// Resource discipline: a completed walk claims its whole segment
// atomically (the same two-pass peek-then-claim as the synchronous
// path). A source leg of a split send cannot know its release time
// until the destination's verdict, so it marks its resources open-held;
// walkers hitting an open hold park without claiming anything (no
// hold-and-wait, hence no deadlock) and are re-buffered into a canonical
// drain when the hold resolves into a real timed claim.
package netsim

import (
	"fmt"
	"sort"

	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/xbar"
)

// canonStep is the offset of the canonical drain event: walk attempts
// produced at simulated time T are processed at T + 1 ps, sorted by
// message id. One picosecond is below every hardware constant in the
// model, so the offset is unobservable in any transit time, while
// keeping the drain strictly after every same-time producer event.
const canonStep = sim.Picosecond

// DeliverFunc receives one delivered message on the destination node's
// shard: the hook a partitioned message-passing layer registers to feed
// its receive queues. It runs inside a destination-shard event at the
// message's last-byte arrival time.
type DeliverFunc func(src, dst int, payload any, firstByte, lastByte sim.Time)

// PartNetwork is a network partitioned across psim shards: the
// split-phase, mailbox-routed counterpart of Network + Transport.
type PartNetwork struct {
	net *Network
	// part is the user's placement: which shard owns each node and
	// directed resource. grain is the finest aligned partition (one group
	// per leaf crossbar) — the boundary the event program is fixed to, so
	// every shard count replays the identical history.
	part, grain *topo.Partition
	eng         *psim.Engine
	shards      []*partShard
	tps         []*Transport
	// msgSeq numbers each source node's sends; msgID = src<<32|seq is the
	// canonical drain sort key. Each entry is written only by its node's
	// shard.
	msgSeq []uint32
	// deliver, when non-nil, receives every delivered payload on the
	// destination shard. Registered before Run; immutable during it.
	deliver DeliverFunc
	// tenants are the labels SetTenants declared, kept so a re-attached
	// registry re-resolves the per-tenant histograms.
	tenants []string
	// userReg/userRec are the caller's registry and recorder; per-shard
	// instances absorb the run and fold back at Finish.
	userReg *metrics.Registry
	userRec *trace.Recorder
	folded  bool
}

// partShard is one shard's slice of the partitioned network: its drain
// buffer, open-hold table, in-flight protocol drivers and private
// observability instruments.
type partShard struct {
	pn *PartNetwork
	id int
	sh *psim.Shard
	// pending holds walk attempts awaiting their canonical drain; armed
	// marks drain times already scheduled.
	pending []*pleg
	armed   map[sim.Time]bool
	// open maps each resource a split send's source leg holds open (claim
	// window end unknown until the destination's verdict) to the walkers
	// parked on it.
	open map[resKey][]*pleg
	// inflight maps msgID to the protocol driver awaiting a verdict.
	inflight map[uint64]*psend
	// ledger is this shard's slice of the degraded-mode counters (summed
	// across shards by Plane — commutative, so placement-free), its
	// private instruments and recorder, folded into the user's at Run.
	ledger
	sent int64
	reg  *metrics.Registry
	// walkWires and walkHops are the destination legs' claim buffers.
	walkWires []wireClaim
	walkHops  []hopClaim
}

// resKey identifies one claimable resource: a directed wire (kind 0,
// keyed by its upstream dev/port) or a crossbar output channel (kind 1).
type resKey struct {
	kind    uint8
	dev, at int
}

func wireRes(dev, port int) resKey { return resKey{0, dev, port} }
func hopRes(ord, out int) resKey   { return resKey{1, ord, out} }

// NewPartitioned assembles a partitioned network over the topology:
// shards contiguous node groups (topo.Partition), one psim shard each,
// with every directed wire pre-created (lazy creation would write the
// shared wire map from concurrent shards) and one fault-aware transport
// per node for route and plane-down caching on the node's shard.
func NewPartitioned(t *topo.Topology, shards int, cfg FailoverConfig) (*PartNetwork, error) {
	part, err := t.Partition(shards)
	if err != nil {
		return nil, err
	}
	grain, err := t.GroupPartition()
	if err != nil {
		return nil, err
	}
	n := New(t)
	devs := t.Nodes() + t.Crossbars()
	for dev := 0; dev < devs; dev++ {
		ports := ni.LinksPerNode
		if dev >= t.Nodes() {
			ports = xbar.Ports
		}
		for p := 0; p < ports; p++ {
			if t.Wired(dev, p) {
				n.wire(dev, p, 0)
			}
		}
	}
	pn := &PartNetwork{
		net:    n,
		part:   part,
		grain:  grain,
		eng:    psim.NewEngine(shards, psim.DefaultLookahead()),
		tps:    make([]*Transport, t.Nodes()),
		msgSeq: make([]uint32, t.Nodes()),
	}
	for i := 0; i < shards; i++ {
		pn.shards = append(pn.shards, &partShard{
			pn:       pn,
			id:       i,
			sh:       pn.eng.Shard(i),
			armed:    make(map[sim.Time]bool),
			open:     make(map[resKey][]*pleg),
			inflight: make(map[uint64]*psend),
			ledger:   ledger{shard: true},
		})
	}
	for node := range pn.tps {
		pn.tps[node] = n.MustTransport(node, cfg)
	}
	return pn, nil
}

// Network exposes the underlying network for pre-run fault injection
// (CutWire, CorruptWire — wire fault windows are immutable during a
// partitioned run, which is what makes reading them cross-shard safe).
func (pn *PartNetwork) Network() *Network { return pn.net }

// Partition reports the placement partition (node and resource
// ownership per shard).
func (pn *PartNetwork) Partition() *topo.Partition { return pn.part }

// Engine exposes the psim engine driving the shards.
func (pn *PartNetwork) Engine() *psim.Engine { return pn.eng }

// Shard returns shard i's event scheduler.
func (pn *PartNetwork) Shard(i int) *psim.Shard { return pn.shards[i].sh }

// ShardOf reports the shard owning node n.
func (pn *PartNetwork) ShardOf(node int) int { return pn.part.NodeShard(node) }

// OnDeliver registers the delivery hook. Call before Run.
func (pn *PartNetwork) OnDeliver(fn DeliverFunc) { pn.deliver = fn }

// SetMetrics attaches a registry: each shard resolves its own private
// instruments (send-path counters, latency and detection histograms,
// arbitration waits) and Finish merges them into m in shard order. The
// merged result is independent of the shard count because every merge
// is commutative (sums and extrema).
func (pn *PartNetwork) SetMetrics(m *metrics.Registry) {
	pn.userReg = m
	buckets := metrics.TimeBuckets(200*sim.Nanosecond, 2, 10)
	for _, ps := range pn.shards {
		ps.reg = nil
		if m != nil {
			ps.reg = metrics.NewRegistry()
		}
		ps.met = newNetInstruments(ps.reg)
		ps.arbWait = ps.reg.TimeHistogram(xbar.MetricArbWait, buckets)
		for p := range ps.planeWait {
			ps.planeWait[p] = ps.reg.TimeHistogram(xbar.MetricArbWaitPlanePrefix+planeName(p), buckets)
		}
	}
	pn.SetTenants(pn.tenants)
}

// SetTenants declares the tenant labels of SendAsyncTenant: tenant i's
// delivered latencies land in the histogram named
// MetricSendLatencyTenantPrefix + names[i], resolved per shard and
// folded with the rest at Finish. Off (like everything else) when no
// registry is attached; call order with SetMetrics does not matter.
func (pn *PartNetwork) SetTenants(names []string) {
	pn.tenants = names
	for _, ps := range pn.shards {
		ps.met.tenantLat = make([]*metrics.Histogram, len(names))
		ps.met.tenantWait = make([][4]*metrics.Histogram, len(names))
		for i, name := range names {
			ps.met.tenantLat[i], ps.met.tenantWait[i] = tenantHistograms(ps.reg, name)
		}
	}
}

// ShardRegistry exposes shard i's private registry so co-partitioned
// layers (internal/mpl) can resolve their own per-shard instruments and
// have them folded with the network's. Nil when metrics are off.
func (pn *PartNetwork) ShardRegistry(i int) *metrics.Registry { return pn.shards[i].reg }

// SetRecorder attaches a recorder: each shard records into a private
// recorder, every pre-created wire records into its owning shard's, and
// Finish merges all of them into r under trace.Merge's canonical order.
func (pn *PartNetwork) SetRecorder(r *trace.Recorder) {
	pn.userRec = r
	for _, ps := range pn.shards {
		if r == nil {
			ps.rec = nil
		} else {
			ps.rec = trace.NewRecorder()
		}
	}
	t := pn.net.topo
	for k, w := range pn.net.wires {
		owner := 0
		if k.dev < t.Nodes() {
			owner = pn.part.NodeShard(k.dev)
		} else if o := pn.part.XbarOutOwner(k.dev-t.Nodes(), k.port); o >= 0 {
			owner = o
		}
		if r == nil {
			w.Trace(nil, 0)
		} else {
			w.Trace(pn.shards[owner].rec, trace.WireTrack(k.dev, k.port, k.dir))
		}
	}
}

// Run drives the engine until every shard drains, then folds the
// per-shard observability state into the attached registry/recorder.
func (pn *PartNetwork) Run() {
	pn.eng.Run()
	pn.fold()
}

// fold merges per-shard metrics and traces into the user's instruments;
// idempotent via the folded latch.
func (pn *PartNetwork) fold() {
	if pn.folded {
		return
	}
	pn.folded = true
	if pn.userReg != nil {
		for _, ps := range pn.shards {
			pn.userReg.MergeFrom(ps.reg)
		}
	}
	if pn.userRec != nil {
		recs := make([]*trace.Recorder, len(pn.shards))
		for i, ps := range pn.shards {
			recs[i] = ps.rec
		}
		trace.Merge(pn.userRec, recs...)
	}
}

// Plane sums plane p's degraded-mode counters across shards.
func (pn *PartNetwork) Plane(p int) PlaneCounters {
	var sum PlaneCounters
	for _, ps := range pn.shards {
		sum.add(ps.planes[p])
	}
	return sum
}

// PlaneCounterSet renders plane p's shard-summed counters as the same
// ordered stats.CounterSet the synchronous Network renders — the
// degraded-mode report of cmd/pmfault. The OS-stream rows are always
// zero: the partitioned datapath carries no background OS stream.
func (pn *PartNetwork) PlaneCounterSet(p int) stats.CounterSet { return pn.Plane(p).counterSet(p) }

// MessagesSent reports network attempts across all shards.
func (pn *PartNetwork) MessagesSent() int64 {
	var n int64
	for _, ps := range pn.shards {
		n += ps.sent
	}
	return n
}

// OnPost implements psim.Handler: cross-shard payloads are remote legs
// (header reached this shard's half of a route) or finalize verdicts
// (the destination's outcome returning to the source).
func (ps *partShard) OnPost(_ *psim.Shard, payload any) {
	switch m := payload.(type) {
	case *remoteLeg:
		ps.acceptRemote(m)
	case *finalizeMsg:
		ps.finalize(m)
	default:
		panic(fmt.Sprintf("netsim: shard %d received unknown payload %T", ps.id, payload))
	}
}

// buffer queues a walk attempt for the canonical drain one canonStep
// after the current event.
//
//pmlint:hotpath
func (ps *partShard) buffer(l *pleg) {
	wd := ps.sh.Now() + canonStep
	l.wd = wd
	ps.pending = append(ps.pending, l)
	if !ps.armed[wd] {
		ps.armed[wd] = true
		ps.sh.At(wd, func() { ps.drain(wd) }) //pmlint:allow hotpath one closure per armed drain time, amortized over every leg it drains
	}
}

// drain processes every buffered walk attempt due at this drain time in
// canonical message-id order — the step that makes same-timestamp
// resource claims a pure function of the model.
func (ps *partShard) drain(at sim.Time) {
	delete(ps.armed, at)
	var due []*pleg
	rest := ps.pending[:0]
	for _, l := range ps.pending {
		if l.wd <= at {
			due = append(due, l)
		} else {
			rest = append(rest, l)
		}
	}
	ps.pending = rest
	sort.Slice(due, func(i, j int) bool { return due[i].msgID < due[j].msgID })
	for _, l := range due {
		ps.process(l)
	}
}

// pleg is one walk attempt over a contiguous same-shard segment of a
// message's route: the whole path of an intra-group send, or the
// source- or destination-owned half of a split one. A pleg crossing a
// mailbox travels inside a remoteLeg as plain data.
type pleg struct {
	msgID uint64
	wd    sim.Time // canonical drain deadline
	// p is the protocol driver — source-shard legs only; nil on a
	// destination leg (the verdict returns through a finalizeMsg).
	p *psend
	// rl is the remote-leg payload — destination legs only.
	rl *remoteLeg
}

// remoteLeg is the cross-shard continuation of a split send: everything
// the destination shard needs to finish the walk, render the verdict
// and deliver the payload — pure data, no source-shard captures.
type remoteLeg struct {
	msgID        uint64
	src, dst     int
	plane        int
	path         topo.Path
	split        int      // first destination-owned hop
	head         sim.Time // header arrival at the boundary crossbar
	entry        sim.Time // network entry time (for the message spans)
	wireBytes    int
	payloadBytes int
	setupTimeout sim.Time
	ackTimeout   sim.Time
	nackLatency  sim.Time
	// srcWires are the source leg's claims, read here for the CRC
	// verdict only (fault windows are immutable during a run); the source
	// reuses them after the verdict returns.
	srcWires []wireClaim
	payload  any
}

// finalizeMsg is the destination's verdict returning to the source
// shard: the outcome of the destination half of a split send.
type finalizeMsg struct {
	msgID uint64
	kind  uint8 // finOK, finCRC, finCut, finTimeout
	// last/firstByte/setupDone describe the completed circuit (finOK and
	// finCRC); detected is when the source learns of a failure (ack
	// timeout for cut/timeout, NACK return for CRC).
	last, firstByte, setupDone sim.Time
	detected                   sim.Time
}

const (
	finOK uint8 = iota
	finCRC
	finCut
	finTimeout
)

// process runs one drained walk attempt to its next state: parked on an
// open hold, failed (severed wire / setup timeout), or walked — in
// which case the claim/split/finalize logic of the leg's side applies.
func (ps *partShard) process(l *pleg) {
	if l.p != nil {
		ps.processSrc(l)
	} else {
		ps.processDst(l)
	}
}

// holdOpen marks a split send's source-leg resources open-held until
// its verdict.
func (ps *partShard) holdOpen(wires []wireClaim, hops []hopClaim) {
	for _, c := range wires {
		ps.open[c.key] = nil
	}
	for _, c := range hops {
		ps.open[hopRes(c.ord, c.out)] = nil
	}
}

// releaseOpen clears a split send's open holds and re-buffers every
// parked walker into the next canonical drain (which re-sorts them by
// message id, keeping wake order model-determined).
func (ps *partShard) releaseOpen(wires []wireClaim, hops []hopClaim) {
	for _, c := range wires {
		ps.wake(c.key)
	}
	for _, c := range hops {
		ps.wake(hopRes(c.ord, c.out))
	}
}

// wake clears the open hold on k and re-buffers its parked walkers.
func (ps *partShard) wake(k resKey) {
	for _, w := range ps.open[k] {
		ps.buffer(w)
	}
	delete(ps.open, k)
}

// acceptRemote turns an arriving remote leg into a buffered destination
// walk attempt — the same canonical path whether the leg crossed a
// mailbox or was scheduled locally (same-shard groups).
func (ps *partShard) acceptRemote(rl *remoteLeg) {
	ps.buffer(&pleg{msgID: rl.msgID, rl: rl})
}

// processDst runs a destination leg: walk the destination-owned suffix,
// claim it, and render the verdict.
func (ps *partShard) processDst(l *pleg) {
	rl, n := l.rl, ps.pn.net
	r := n.walk(rl.path, rl.split, len(rl.path.Hops), rl.head, rl.wireBytes, rl.setupTimeout,
		ps.open, ps.walkWires[:0], ps.walkHops[:0])
	ps.walkWires, ps.walkHops = r.wires, r.hops
	switch r.outcome {
	case walkParked:
		ps.open[r.parked] = append(ps.open[r.parked], l)
		return
	case walkFailed:
		// The suffix could not form. The partial circuit on this side
		// holds until the teardown at the source's detection time; the
		// source's protocol charges the failure when the verdict lands.
		// The ack timeout anchors at the entry time, but when the circuit
		// formation itself outlasted the ack window (a first-wire stall is
		// exempt from the setup timeout), teardown cannot precede the
		// header's arrival at the failure point — floor it there plus the
		// NACK return, which also keeps the verdict beyond the engine's
		// conservative lookahead.
		detected := rl.entry + rl.ackTimeout
		if fl := r.at + rl.nackLatency; detected < fl {
			detected = fl
		}
		n.hold(&ps.ledger, r.wires, r.hops, detected, rl.plane)
		kind := finTimeout
		if r.cut {
			kind = finCut
		}
		ps.sendVerdict(rl, &finalizeMsg{msgID: rl.msgID, kind: kind, detected: detected})
		return
	}

	bad := n.complete(&ps.ledger, rl.path, &r, rl.srcWires, rl.entry, rl.payloadBytes)
	recordArrival(n.nis[rl.dst].Links[rl.plane], &ps.planes[rl.plane], bad)
	if bad {
		// The CRC error is discovered (and counted) here; whether the
		// sender spends a same-plane retry or fails over is decided on the
		// source shard, which owns the send's budget (psend.finish).
		ps.sendVerdict(rl, &finalizeMsg{
			msgID: rl.msgID, kind: finCRC,
			last: r.last, firstByte: r.first, setupDone: r.head,
			detected: r.last + rl.nackLatency,
		})
		return
	}
	if fn := ps.pn.deliver; fn != nil {
		src, dst, payload := rl.src, rl.dst, rl.payload
		first, last := r.first, r.last
		ps.sh.At(r.last, func() { fn(src, dst, payload, first, last) })
	}
	ps.sendVerdict(rl, &finalizeMsg{
		msgID: rl.msgID, kind: finOK,
		last: r.last, firstByte: r.first, setupDone: r.head,
	})
}

// sendVerdict routes a finalize verdict back to the source shard at its
// effect time: the delivery (or NACK-visible) time for completed
// circuits, the ack-timeout detection time for silent failures. Both
// exceed the engine's lookahead past the current event by at least a
// wire propagation delay.
func (ps *partShard) sendVerdict(rl *remoteLeg, fm *finalizeMsg) {
	at := fm.last
	if fm.kind == finCut || fm.kind == finTimeout {
		at = fm.detected
	}
	srcShard := ps.pn.part.NodeShard(rl.src)
	if srcShard == ps.id {
		ps.sh.At(at, func() { ps.finalize(fm) })
		return
	}
	ps.pn.eng.PostPayload(ps.id, srcShard, at, ps.pn.shards[srcShard], fm)
}

// finalize applies a verdict on the source shard: claim or tear down
// the source half of the circuit, wake parked walkers, and hand the
// outcome to the protocol driver.
func (ps *partShard) finalize(fm *finalizeMsg) {
	p, ok := ps.inflight[fm.msgID]
	if !ok {
		panic(fmt.Sprintf("netsim: shard %d finalizing unknown message %d", ps.id, fm.msgID))
	}
	delete(ps.inflight, fm.msgID)
	p.finish(fm)
}

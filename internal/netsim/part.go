// Node-partitioned datapath: the split-phase send machinery that routes
// every inter-node message through psim cross-shard mailboxes.
//
// The legacy path (Network.send) computes a whole wormhole transit in
// one synchronous call, which is only sound when one goroutine owns the
// entire network. A PartNetwork carves the same network across psim
// shards — contiguous node groups, resource ownership per
// topo.Partition — and splits each send into a local and a remote
// phase: the source shard walks the source-owned prefix of the route
// (its own uplink, its leaf crossbar's outputs, the leaf-to-central
// wire) and posts the remainder as a cross-shard event at the time the
// header reaches the central crossbar; the destination shard walks the
// destination-owned suffix, renders the delivery or failure verdict
// (CRC check included), and posts the outcome back. Every cross-shard
// hop rides a psim mailbox as plain data (psim.Handler payloads), never
// a closure over source-shard state.
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
// atomically (the same two-pass peek-then-claim as the legacy path). A
// source leg of a split send cannot know its release time until the
// destination's verdict, so it marks its resources open-held; walkers
// hitting an open hold park without claiming anything (no hold-and-wait,
// hence no deadlock) and are re-buffered into a canonical drain when the
// hold resolves into a real timed claim.
package netsim

import (
	"fmt"
	"sort"

	"powermanna/internal/link"
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
	// open maps a resource to the open hold of a split send's source leg
	// (claim window end unknown until the destination's verdict).
	open map[resKey]*openHold
	// inflight maps msgID to the protocol driver awaiting a verdict.
	inflight map[uint64]*psend
	// planes/sent are this shard's slice of the degraded-mode counters;
	// summed across shards at Finish (commutative, so placement-free).
	planes [ni.LinksPerNode]PlaneCounters
	sent   int64
	reg    *metrics.Registry
	met    netInstruments
	// arbWait and planeWait mirror the crossbar's arbitration instruments
	// for partitioned claims: one crossbar's outputs can belong to
	// different shards, so the wait accounting lands in the claiming
	// shard's own histograms instead of the crossbar's shared ones.
	arbWait   *metrics.Histogram
	planeWait [ni.LinksPerNode]*metrics.Histogram
	rec       *trace.Recorder
}

// resKey identifies one claimable resource: a directed wire (kind 0,
// keyed by its upstream dev/port) or a crossbar output channel (kind 1).
type resKey struct {
	kind    uint8
	dev, at int
}

func wireRes(dev, port int) resKey { return resKey{0, dev, port} }
func hopRes(ord, out int) resKey   { return resKey{1, ord, out} }

// openHold marks a resource held by an in-flight split send whose claim
// window is not yet known. Walkers that hit it park here and are
// re-buffered when the hold resolves.
type openHold struct {
	msgID   uint64
	waiters []*pleg
}

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
			open:     make(map[resKey]*openHold),
			inflight: make(map[uint64]*psend),
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

// SetSerial switches the engine between parallel and serial dispatch —
// byte-identical histories either way (psim's contract); serial is the
// --engine seq execution and the only safe mode nested inside another
// engine's event.
func (pn *PartNetwork) SetSerial(on bool) { pn.eng.SetSerial(on) }

// SetMetrics attaches a registry: each shard resolves its own private
// instruments (send-path counters, latency and detection histograms,
// arbitration waits) and Finish merges them into m in shard order. The
// merged result is independent of the shard count because every merge
// is commutative (sums and extrema).
func (pn *PartNetwork) SetMetrics(m *metrics.Registry) {
	pn.userReg = m
	for _, ps := range pn.shards {
		if m == nil {
			ps.reg, ps.met = nil, netInstruments{}
			ps.arbWait = nil
			ps.planeWait = [ni.LinksPerNode]*metrics.Histogram{}
			continue
		}
		ps.reg = metrics.NewRegistry()
		ps.met = netInstruments{
			sends:         ps.reg.Counter(MetricSends),
			delivered:     ps.reg.Counter(MetricDelivered),
			failed:        ps.reg.Counter(MetricFailed),
			retried:       ps.reg.Counter(MetricRetried),
			planeDownHits: ps.reg.Counter(MetricPlaneDownHits),
			sendLatency:   ps.reg.TimeHistogram(MetricSendLatency, latencyBuckets()),
			detection:     ps.reg.TimeHistogram(MetricDetection, latencyBuckets()),
			wait:          waitHistograms(ps.reg),
		}
		buckets := metrics.TimeBuckets(200*sim.Nanosecond, 2, 10)
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
		if ps.reg == nil || len(names) == 0 {
			ps.met.tenantLat = nil
			ps.met.tenantWait = nil
			continue
		}
		ps.met.tenantLat = make([]*metrics.Histogram, len(names))
		ps.met.tenantWait = make([][4]*metrics.Histogram, len(names))
		for i, name := range names {
			ps.met.tenantLat[i] = ps.reg.TimeHistogram(MetricSendLatencyTenantPrefix+name, tenantLatencyBuckets())
			ps.met.tenantWait[i] = tenantWaitHistograms(ps.reg, name)
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

// ShardRecorder exposes shard i's private recorder (nil when off).
func (pn *PartNetwork) ShardRecorder(i int) *trace.Recorder { return pn.shards[i].rec }

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
		c := ps.planes[p]
		sum.Attempts += c.Attempts
		sum.Delivered += c.Delivered
		sum.Stalled += c.Stalled
		sum.LinkDown += c.LinkDown
		sum.SetupTimeouts += c.SetupTimeouts
		sum.CRCErrors += c.CRCErrors
		sum.CRCRetries += c.CRCRetries
		sum.FailedOver += c.FailedOver
		sum.SkippedDown += c.SkippedDown
	}
	return sum
}

// PlaneCounterSet renders plane p's shard-summed counters as the same
// ordered stats.CounterSet the legacy Network renders — the degraded-
// mode report of cmd/pmfault. The OS-stream rows are always zero: the
// partitioned datapath carries no background OS stream.
func (pn *PartNetwork) PlaneCounterSet(p int) stats.CounterSet {
	c := pn.Plane(p)
	set := stats.CounterSet{Title: fmt.Sprintf("plane %s", planeName(p))}
	set.Add("attempts", c.Attempts)
	set.Add("delivered", c.Delivered)
	set.Add("stalled", c.Stalled)
	set.Add("link-down", c.LinkDown)
	set.Add("setup-timeouts", c.SetupTimeouts)
	set.Add("crc-errors", c.CRCErrors)
	set.Add("crc-retries", c.CRCRetries)
	set.Add("failed-over", c.FailedOver)
	set.Add("skipped-down", c.SkippedDown)
	set.Add("os-messages", c.OSMessages)
	set.Add("os-dropped", c.OSDropped)
	return set
}

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

// wireCheck carries one source-leg wire claim to the destination shard
// for the CRC verdict. The wire pointer is read-only there: fault
// windows are immutable during a run.
type wireCheck struct {
	w     *link.Wire
	start sim.Time
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
	srcChecks    []wireCheck
	payload      any
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

// walkRes is the outcome of one segment walk.
type walkRes struct {
	outcome walkOutcome
	at      sim.Time // failure time (cut/timeout)
	cut     bool
	wires   []partWireClaim
	hops    []partHopClaim
	head    sim.Time // header time after the segment
	first   sim.Time // body arrival (complete walks only)
	last    sim.Time
}

type walkOutcome int

const (
	walkOK walkOutcome = iota
	walkParked
	walkFailed
)

type partWireClaim struct {
	w     *link.Wire
	key   resKey
	start sim.Time
	bytes int
}

type partHopClaim struct {
	ord, out         int
	key              resKey
	requested, start sim.Time
}

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

// walk mirrors Network.send's pass-1 header walk over one segment of
// the path, peeking at free times and honouring open holds. All times
// are the walker's carried model times — never the drain event's clock.
func (ps *partShard) walk(l *pleg, path topo.Path, split int, dstLeg bool, entry sim.Time,
	wireBytes int, setupTimeout sim.Time) walkRes {

	n := ps.pn.net
	byteTime := n.linkCfg.TransferTime(1)
	k := len(path.Hops)
	lo, hi := 0, split
	if dstLeg {
		lo, hi = split, k
	}
	head := entry
	fromDev, fromPort := path.Src, path.Network
	if dstLeg {
		// The source leg already crossed the wire into the boundary
		// crossbar; this leg starts at its output arbitration.
		fromDev, fromPort = n.topo.Nodes()+path.Hops[split].Xbar, path.Hops[split].Out
	}
	remaining := wireBytes - lo
	res := walkRes{outcome: walkOK}

	walkWire := func(dev, port int, first bool) (*link.Wire, sim.Time, bool) {
		w := n.wire(dev, port, 0)
		key := wireRes(dev, port)
		if hold, ok := ps.open[key]; ok {
			hold.waiters = append(hold.waiters, l)
			res.outcome = walkParked
			return nil, 0, false
		}
		wStart := sim.Max(head, w.FreeAt())
		if w.DeadAt(wStart) {
			res.outcome, res.at, res.cut = walkFailed, wStart, true
			return nil, 0, false
		}
		if setupTimeout > 0 && !first && wStart-head > setupTimeout {
			res.outcome, res.at = walkFailed, head+setupTimeout
			return nil, 0, false
		}
		res.wires = append(res.wires, partWireClaim{w: w, key: key, start: wStart, bytes: remaining})
		return w, wStart, true
	}

	for i := lo; i < hi; i++ {
		hop := path.Hops[i]
		if !(dstLeg && i == lo) {
			_, wStart, ok := walkWire(fromDev, fromPort, i == 0)
			if !ok {
				return res
			}
			lat := n.linkCfg.PropagationDelay + byteTime
			if hop.AsyncIn {
				lat += n.trans.Latency
			}
			head = wStart + lat
		}
		key := hopRes(hop.Xbar, hop.Out)
		if hold, ok := ps.open[key]; ok {
			hold.waiters = append(hold.waiters, l)
			res.outcome = walkParked
			return res
		}
		setupStart := sim.Max(head, n.xbars[hop.Xbar].OutputFreeAt(hop.Out))
		if setupTimeout > 0 && setupStart-head > setupTimeout {
			res.outcome, res.at = walkFailed, head+setupTimeout
			return res
		}
		res.hops = append(res.hops, partHopClaim{ord: hop.Xbar, out: hop.Out, key: key, requested: head, start: setupStart})
		head = setupStart + xbar.RouteSetup
		fromDev, fromPort = n.topo.Nodes()+hop.Xbar, hop.Out
		remaining--
	}

	if !dstLeg && split < k {
		// Source leg of a split send: walk the wire into the boundary
		// crossbar (source-owned, per the up/down ownership rule) and stop
		// with the header's arrival there.
		_, wStart, ok := walkWire(fromDev, fromPort, false)
		if !ok {
			return res
		}
		lat := n.linkCfg.PropagationDelay + byteTime
		if path.Hops[split].AsyncIn {
			lat += n.trans.Latency
		}
		res.head = wStart + lat
		return res
	}

	// Complete walk (full path or destination leg): the last wire to the
	// destination node.
	_, lwStart, ok := walkWire(fromDev, fromPort, false)
	if !ok {
		return res
	}
	res.head = head
	res.first = lwStart + n.linkCfg.PropagationDelay + byteTime
	res.last = res.first + n.linkCfg.TransferTime(wireBytes-len(path.RouteBytes))
	return res
}

// claimWires applies real wire holds for a walked segment.
func (ps *partShard) claimWires(claims []partWireClaim, until sim.Time) {
	for _, c := range claims {
		c.w.Hold(c.start, until, c.bytes)
	}
}

// claimPartial applies the claims of a failed attempt's partial circuit
// up to its teardown time. Resources the header would only have reached
// after the teardown are skipped — the header never got there — and the
// rest hold until the teardown, never shorter than their own start.
func (ps *partShard) claimPartial(wires []partWireClaim, hops []partHopClaim, teardown sim.Time, plane int) {
	for _, c := range wires {
		if c.start < teardown {
			c.w.Hold(c.start, teardown, c.bytes)
		}
	}
	kept := hops[:0]
	for _, c := range hops {
		if c.start < teardown {
			kept = append(kept, c)
		}
	}
	ps.claimHops(kept, teardown, plane)
}

// claimHops applies real output-channel claims, with arbitration waits
// and circuit spans landing in the claiming shard's own instruments
// (the crossbar's shared counters can belong to several shards).
func (ps *partShard) claimHops(claims []partHopClaim, until sim.Time, plane int) {
	for _, c := range claims {
		ps.pn.net.xbars[c.ord].ClaimOutput(c.start, until, c.out)
		if c.start > c.requested {
			ps.arbWait.ObserveTime(c.start - c.requested)
			ps.planeWait[plane].ObserveTime(c.start - c.requested)
		}
		if ps.rec.Enabled() {
			track := trace.XbarPortTrack(c.ord, c.out)
			if c.start > c.requested {
				ps.rec.Span(track, "xbar", "arb-wait", c.requested, c.start)
			}
			ps.rec.Span(track, "xbar", "circuit", c.start, until)
		}
	}
}

// holdOpen marks a source leg's resources open-held until its verdict.
func (ps *partShard) holdOpen(msgID uint64, res *walkRes) []resKey {
	keys := make([]resKey, 0, len(res.wires)+len(res.hops))
	for _, c := range res.wires {
		ps.open[c.key] = &openHold{msgID: msgID}
		keys = append(keys, c.key)
	}
	for _, c := range res.hops {
		ps.open[c.key] = &openHold{msgID: msgID}
		keys = append(keys, c.key)
	}
	return keys
}

// releaseOpen clears a message's open holds and re-buffers every parked
// walker into the next canonical drain (which re-sorts them by message
// id, keeping wake order model-determined).
func (ps *partShard) releaseOpen(keys []resKey) {
	for _, k := range keys {
		hold, ok := ps.open[k]
		if !ok {
			continue
		}
		delete(ps.open, k)
		for _, w := range hold.waiters {
			ps.buffer(w)
		}
	}
}

// corrupted renders the CRC verdict over every wire the circuit
// crossed: severed mid-stream or inside a corruption window.
func corrupted(checks []wireCheck, last sim.Time) bool {
	bad := false
	for _, c := range checks {
		if cut, ok := c.w.CutTime(); ok && cut > c.start && cut <= last {
			bad = true
		}
		if c.w.CorruptedIn(c.start, last) {
			bad = true
		}
	}
	return bad
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
	rl := l.rl
	res := ps.walk(l, rl.path, rl.split, true, rl.head, rl.wireBytes, rl.setupTimeout)
	switch res.outcome {
	case walkParked:
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
		if fl := res.at + rl.nackLatency; detected < fl {
			detected = fl
		}
		ps.claimPartial(res.wires, res.hops, detected, rl.plane)
		kind := finTimeout
		if res.cut {
			kind = finCut
		}
		ps.sendVerdict(rl, &finalizeMsg{msgID: rl.msgID, kind: kind, detected: detected})
		return
	}

	checks := append(append([]wireCheck(nil), rl.srcChecks...), wireChecksOf(res.wires)...)
	ps.claimWires(res.wires, res.last)
	ps.claimHops(res.hops, res.last, rl.plane)
	bad := corrupted(checks, res.last)
	recordArrival(ps.pn.net.nis[rl.dst].Links[rl.plane], &ps.planes[rl.plane], bad)
	if bad {
		// The CRC error is discovered (and counted) here; whether the
		// sender spends a same-plane retry or fails over is decided on the
		// source shard, which owns the send's budget (psend.finish).
		ps.sendVerdict(rl, &finalizeMsg{
			msgID: rl.msgID, kind: finCRC,
			last: res.last, firstByte: res.first, setupDone: res.head,
			detected: res.last + rl.nackLatency,
		})
		return
	}
	if fn := ps.pn.deliver; fn != nil {
		src, dst, payload := rl.src, rl.dst, rl.payload
		first, last := res.first, res.last
		ps.sh.At(res.last, func() { fn(src, dst, payload, first, last) })
	}
	ps.sendVerdict(rl, &finalizeMsg{
		msgID: rl.msgID, kind: finOK,
		last: res.last, firstByte: res.first, setupDone: res.head,
	})
}

func wireChecksOf(claims []partWireClaim) []wireCheck {
	out := make([]wireCheck, len(claims))
	for i, c := range claims {
		out[i] = wireCheck{w: c.w, start: c.start}
	}
	return out
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

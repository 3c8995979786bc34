// psend: the split-phase executor of the driver-level failover
// protocol. A psend drives the same protocol value the synchronous
// Transport.sendWith drives (failover.go) — plane order, plane-down
// cache, verdict accounting and the Delivery all live there — and owns
// only what is truly split-phase: each real attempt is the wormhole
// walk (wormhole.go) over the source-owned hops on this shard, then,
// for a cross-group route, over the destination-owned hops on the
// destination's shard (part.go), instead of one Network.send call over
// the whole path. Here live the source half of that walk, its open
// holds, the hand-off of the remote leg, the causality floor on
// source-side failures and the verdicts returning from the destination
// shard. Attempts from many nodes thus interleave deterministically
// across psim shards instead of serialising in program order, under the
// same timing formulas.
package netsim

import (
	"fmt"

	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// psend is one in-flight reliable send's split-phase executor. It lives
// on the source node's shard; only finalize verdicts (plain data through
// psim mailboxes) reach it from other shards.
type psend struct {
	pn      *PartNetwork
	ps      *partShard
	pr      protocol
	payload any
	msgID   uint64
	onDone  func(Delivery)

	// The current attempt's split point and on-wire length, valid while
	// a walk or verdict is pending.
	curSplit     int
	curWireBytes int
	// The current attempt's source-half claims: the walk's reused
	// buffers, held open while a split attempt awaits its verdict.
	srcWires []wireClaim
	srcHops  []hopClaim
}

// SendAsync runs the failover protocol for one message from src to dst,
// entering the network no earlier than at (clamped to the source
// shard's clock — a cross-shard send cannot start in its shard's past).
// It must be called from an event on src's shard. onDone receives the
// outcome — delivered or Failed, never an error — inside the source-
// shard event where the outcome became known; the delivered payload
// reaches the destination through the OnDeliver hook at its arrival
// time. The returned error covers only malformed arguments.
func (pn *PartNetwork) SendAsync(src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	return pn.sendAsync(-1, src, dst, payloadBytes, payload, at, onDone)
}

// SendAsyncTenant is SendAsync with a tenant label: the delivered
// latency additionally lands in the tenant's labelled histogram
// (SetTenants declares the labels; the index is into that slice).
// Everything else — protocol, timing, determinism — is identical.
func (pn *PartNetwork) SendAsyncTenant(tenant, src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	return pn.sendAsync(tenant, src, dst, payloadBytes, payload, at, onDone)
}

func (pn *PartNetwork) sendAsync(tenant, src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	nodes := pn.net.topo.Nodes()
	if src < 0 || src >= nodes || dst < 0 || dst >= nodes {
		return fmt.Errorf("netsim: node out of range (%d, %d)", src, dst)
	}
	if src == dst {
		return fmt.Errorf("netsim: partitioned self-send on node %d", src)
	}
	if payloadBytes < 0 {
		return fmt.Errorf("netsim: negative payload")
	}
	ps := pn.shards[pn.part.NodeShard(src)]
	if t := ps.sh.Now(); t > at {
		at = t
	}
	pn.msgSeq[src]++
	sink := sendSink{ledger: &ps.ledger}
	if tenant >= 0 && tenant < len(ps.met.tenantLat) {
		sink.tenantLat, sink.tenantWait = ps.met.tenantLat[tenant], &ps.met.tenantWait[tenant]
	}
	tp := pn.tps[src]
	p := &psend{
		pn: pn, ps: ps,
		pr:      newProtocol(tp, at, dst, payloadBytes, &tp.cfg, sink),
		payload: payload,
		msgID:   uint64(src)<<32 | uint64(pn.msgSeq[src]),
		onDone:  onDone,
	}
	p.launch()
	return nil
}

// launch starts the protocol's next attempt as a buffered walk, or ends
// the send when the protocol has no option left. Attempts that never
// reach the network (unwired plane, FIFO-stall abandon) are settled by
// the protocol on the spot.
func (p *psend) launch() {
	for p.pr.next() {
		if !p.pr.enter() {
			continue
		}
		p.ps.sent++
		p.curSplit = p.pn.grain.Boundary(p.pr.path)
		p.curWireBytes = wireBytesFor(p.pr.path, p.pr.payloadBytes)
		p.ps.buffer(&pleg{msgID: p.msgID, p: p})
		return
	}
	p.onDone(p.pr.exhausted())
}

// processSrc runs the source half of the current attempt's walk when
// its canonical drain fires.
func (ps *partShard) processSrc(l *pleg) {
	p := l.p
	r := ps.pn.net.walk(p.pr.path, 0, p.curSplit, p.pr.entry, p.curWireBytes, p.pr.cfg.SetupTimeout,
		ps.open, p.srcWires[:0], p.srcHops[:0])
	p.srcWires, p.srcHops = r.wires, r.hops
	switch {
	case r.outcome == walkParked:
		ps.open[r.parked] = append(ps.open[r.parked], l)
	case r.outcome == walkFailed:
		p.srcFailed(&r)
	case p.curSplit < len(p.pr.path.Hops):
		p.srcSplit(&r)
	default:
		p.srcComplete(&r)
	}
}

// srcFailed handles a failure discovered on the source half: a severed
// wire or a setup timeout before the boundary. The sender learns only
// through the ack timeout; the partial circuit the header built holds
// until that teardown — the contention a failed wormhole really causes.
func (p *psend) srcFailed(r *walkRes) {
	detected := p.pr.entry + p.pr.cfg.AckTimeout
	if now := p.ps.sh.Now(); detected < now {
		// The attempt parked behind an open circuit past its own ack
		// timeout: the failure is established only once the blocking
		// circuit's fate is known (the wake time — itself a pure function
		// of the model, so the floor is shard-count independent). Without
		// it the retry's model clock would lag the shard's event clock and
		// its split legs would post into other shards' pasts.
		detected = now
	}
	p.pn.net.hold(&p.ps.ledger, r.wires, r.hops, detected, p.pr.plane)
	p.pr.failed(detected, r.cut)
	p.launch()
}

// srcSplit hands a cross-group attempt to the destination's half: the
// source segment goes open-held, and the remote leg travels to the
// boundary crossbar's shard as plain data at the header's arrival time
// there (at least a route setup plus a wire crossing past the walk —
// beyond the engine's lookahead by construction).
func (p *psend) srcSplit(r *walkRes) {
	ps := p.ps
	ps.holdOpen(r.wires, r.hops)
	ps.inflight[p.msgID] = p
	cfg := p.pr.cfg
	rl := &remoteLeg{
		msgID: p.msgID, src: p.pr.src, dst: p.pr.dst, plane: p.pr.plane,
		path: p.pr.path, split: p.curSplit,
		head: r.head, entry: p.pr.entry,
		wireBytes: p.curWireBytes, payloadBytes: p.pr.payloadBytes,
		setupTimeout: cfg.SetupTimeout, ackTimeout: cfg.AckTimeout,
		nackLatency: cfg.NackLatency,
		srcWires:    r.wires,
		payload:     p.payload,
	}
	dstShard := p.pn.part.NodeShard(p.pr.dst)
	if dstShard == ps.id {
		ps.sh.At(r.head, func() { ps.acceptRemote(rl) })
		return
	}
	p.pn.eng.PostPayload(ps.id, dstShard, r.head, p.pn.shards[dstShard], rl)
}

// srcComplete finishes an intra-group attempt whose whole circuit lives
// on one shard: complete it and hand the CRC verdict to the protocol —
// the synchronous path's semantics, under canonical-drain ordering.
func (p *psend) srcComplete(r *walkRes) {
	ps, n, plane := p.ps, p.pn.net, p.pr.plane
	bad := n.complete(&ps.ledger, p.pr.path, r, nil, p.pr.entry, p.pr.payloadBytes)
	recordArrival(n.nis[p.pr.dst].Links[plane], &ps.planes[plane], bad)
	if bad {
		p.pr.nacked(r.last + p.pr.cfg.NackLatency)
		p.launch()
		return
	}
	if fn := p.pn.deliver; fn != nil {
		src, dst, payload := p.pr.src, p.pr.dst, p.payload
		first, last := r.first, r.last
		ps.sh.At(r.last, func() { fn(src, dst, payload, first, last) })
	}
	p.onDone(p.pr.delivered(Transit{
		SetupDone: r.head, FirstByte: r.first, LastByte: r.last,
		WireBytes: p.curWireBytes,
	}))
}

// finish applies the destination's verdict on the source shard: claim
// or tear down the source half of the circuit, wake its parked walkers,
// and hand the verdict to the protocol. The destination already
// completed the circuit (its spans and the arrival record); the
// sender-side accounting — failovers, retries, the plane-down cache —
// is the protocol's, on this shard, which owns the send's budget.
func (p *psend) finish(fm *finalizeMsg) {
	ps := p.ps
	until := fm.last
	if fm.kind == finCut || fm.kind == finTimeout {
		// The suffix never formed: the source half holds until the
		// sender's detection.
		until = fm.detected
	}
	p.pn.net.hold(&ps.ledger, p.srcWires, p.srcHops, until, p.pr.plane)
	ps.releaseOpen(p.srcWires, p.srcHops)
	switch fm.kind {
	case finOK:
		p.onDone(p.pr.delivered(Transit{
			SetupDone: fm.setupDone, FirstByte: fm.firstByte, LastByte: fm.last,
			WireBytes: p.curWireBytes,
		}))
	case finCRC:
		// The circuit completed and the body crossed it — the claims run
		// to the last byte — but the destination NACKed the frame.
		p.pr.nacked(fm.detected)
		p.launch()
	default: // finCut, finTimeout
		p.pr.failed(fm.detected, fm.kind == finCut)
		p.launch()
	}
}

// wireBytesFor is the on-wire length of a payload along a path.
func wireBytesFor(path topo.Path, payloadBytes int) int {
	return ni.WireBytes(len(path.RouteBytes), payloadBytes)
}

// Transport: the one fault-aware send path every software layer uses.
//
// Before this layer existed, internal/comm, internal/mpl and
// internal/earth each hand-rolled their own sends over raw Network.Send
// on plane A — so no application benchmark could run under a fault
// campaign, and every layer repeated the route lookup per message. A
// Transport is a per-source handle over the network that owns:
//
//   - route lookup, a thin call into the topology's shared route table
//     (routes are a pure function of the topology, so one table serves
//     every transport, network and shard built over it, and survives
//     Reset);
//   - the synchronous executor of the driver-level failover protocol
//     (failover.go): each attempt the protocol picks runs as one
//     Network.send call;
//   - a per-plane "plane down" cache: after a failed attempt the driver
//     remembers the plane is dead and routes around it at a cheap
//     status-check cost instead of re-paying the full acknowledgment
//     timeout per message, reprobing the plane at a deterministic
//     interval (the cache is what bends the degradation curve from
//     "every message pays 12 µs" to "the first message pays 12 µs");
//   - advancing the optional background OS stream (osstream.go) so
//     failover retries contend with system-software traffic on plane B
//     instead of finding it idle.
//
// The layering rule is enforced by pmlint's `layering` analyzer: outside
// this package, nothing calls Network.Send directly without an audited
// //pmlint:allow directive.
package netsim

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// planeDown is the per-plane entry of the driver's plane-down cache.
type planeDown struct {
	// down marks the plane as known-dead from the sender's viewpoint.
	down bool
	// reprobeAt is when the driver will next risk a real attempt on the
	// plane (detection time + FailoverConfig.ReprobeInterval).
	reprobeAt sim.Time
}

// Transport is one node's fault-aware handle over the network: the send
// path internal/comm, internal/mpl and internal/earth go through. Create
// one per source node with Network.Transport. A Transport is bound to
// its network's lifetime; Network.Reset clears its fault state (plane-
// down cache). It holds no routes of its own: every lookup goes to the
// topology's route table.
type Transport struct {
	net *Network
	src int
	cfg FailoverConfig
	// down is the plane-down cache, one entry per link interface of the
	// node (one per network plane of the duplicated system).
	down [ni.LinksPerNode]planeDown
	// tenantLat, when labelled via SetTenant, additionally receives every
	// delivered send's latency under the tenant's histogram name.
	tenantLat *metrics.Histogram
	// tenantWait receives the delivered latency's decomposition under the
	// tenant's per-component histogram names (waitComponents order).
	tenantWait [4]*metrics.Histogram
}

// Transport returns a new fault-aware per-source send handle using the
// given failover configuration, registered with the network so Reset
// clears its plane-down cache.
func (n *Network) Transport(src int, cfg FailoverConfig) (*Transport, error) {
	if src < 0 || src >= n.topo.Nodes() {
		return nil, fmt.Errorf("netsim: transport source %d out of range", src)
	}
	t := &Transport{net: n, src: src, cfg: cfg}
	n.transports = append(n.transports, t)
	return t, nil
}

// MustTransport is Transport for callers that construct over a validated
// topology; it panics on an out-of-range source.
func (n *Network) MustTransport(src int, cfg FailoverConfig) *Transport {
	t, err := n.Transport(src, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Src reports the node this transport sends from.
func (t *Transport) Src() int { return t.src }

// Config returns the failover configuration the transport applies.
func (t *Transport) Config() FailoverConfig { return t.cfg }

// SetTenant labels this transport's delivered sends: latencies
// additionally land in the tenant's own histogram
// (MetricSendLatencyTenantPrefix + name), resolved from the registry the
// network holds — call after Network.SetMetrics. An empty name, or
// metrics off, clears the label.
func (t *Transport) SetTenant(name string) {
	reg := t.net.mreg
	if name == "" {
		reg = nil
	}
	t.tenantLat, t.tenantWait = tenantHistograms(reg, name)
}

// PlaneDown reports whether the driver's plane-down cache currently
// marks the plane dead, and until when sends skip it.
func (t *Transport) PlaneDown(plane int) (down bool, reprobeAt sim.Time) {
	if plane < 0 || plane >= len(t.down) {
		return false, 0
	}
	return t.down[plane].down, t.down[plane].reprobeAt
}

// Route returns the route from the transport's source to dst on the
// given plane, from the topology's shared route table.
//
//pmlint:hotpath
func (t *Transport) Route(dst, plane int) (topo.Path, error) {
	p, err := t.net.topo.Route(t.src, dst, plane)
	if err != nil {
		return topo.Path{}, t.routeError(dst, plane, err)
	}
	return p, nil
}

// routeError words a failed Route: a bad destination or plane keeps the
// topology's explanation; a valid plane without a route is reported as
// unwired.
func (t *Transport) routeError(dst, plane int, err error) error {
	if dst < 0 || dst >= t.net.topo.Nodes() || (plane != topo.NetworkA && plane != topo.NetworkB) {
		return err
	}
	return fmt.Errorf("netsim: no plane-%s route %d->%d", planeName(plane), t.src, dst)
}

// Send posts payloadBytes to dst under the failover protocol with the
// transport's configuration: plane A first, then plane B, with the
// plane-down cache short-circuiting attempts to a known-dead plane. See
// Network.SendReliable for the protocol's timing accounting; Send adds
// the cache on top.
//
//pmlint:hotpath
func (t *Transport) Send(at sim.Time, dst, payloadBytes int) (Delivery, error) {
	return t.sendWith(at, dst, payloadBytes, t.cfg)
}

// resetFaultState clears the plane-down cache (Network.Reset).
func (t *Transport) resetFaultState() {
	t.down = [ni.LinksPerNode]planeDown{}
}

// markDown records a failed attempt on a plane: the driver treats the
// plane as dead until detectedAt + ReprobeInterval. A zero interval
// disables the cache.
func (t *Transport) markDown(plane int, detectedAt sim.Time, cfg FailoverConfig) {
	if cfg.ReprobeInterval <= 0 || plane < 0 || plane >= len(t.down) {
		return
	}
	t.down[plane] = planeDown{down: true, reprobeAt: detectedAt + cfg.ReprobeInterval}
}

// sendWith runs the failover protocol (failover.go) with each attempt
// executed as one synchronous Network.send call, and tallies the outcome
// into the network's counters and metrics instruments (no-ops when no
// registry is attached).
//
//pmlint:hotpath
func (t *Transport) sendWith(at sim.Time, dst, payloadBytes int, cfg FailoverConfig) (Delivery, error) {
	n := t.net
	if dst < 0 || dst >= n.topo.Nodes() {
		return Delivery{}, fmt.Errorf("netsim: node out of range (%d, %d)", t.src, dst) //pmlint:allow hotpath cold bad-argument path, never taken per message
	}
	if payloadBytes < 0 {
		return Delivery{}, fmt.Errorf("netsim: negative payload")
	}
	p := newProtocol(t, at, dst, payloadBytes, &cfg, sendSink{
		ledger: &n.ledger, tenantLat: t.tenantLat, tenantWait: &t.tenantWait,
	})
	for p.next() {
		// System-software traffic that accumulated up to this attempt's
		// entry time claims its plane-B circuits first, so a failover retry
		// contends with the OS stream instead of finding plane B idle
		// (Section 4: system software owns its own network).
		n.advanceOS(p.attemptAt())
		if !p.enter() {
			continue
		}
		// Silence on the wire: the sender learns of a failed attempt only
		// via the acknowledgment timeout, wherever the fault sits, and the
		// partial circuit holds until then.
		detected := p.entry + cfg.AckTimeout
		tr, err := n.send(p.entry, p.path, payloadBytes, cfg.SetupTimeout, detected)
		if err != nil {
			var down *DownError
			if !errorsAs(err, &down) {
				return Delivery{}, err
			}
			p.failed(detected, down.Cut)
			continue
		}
		recordArrival(n.nis[dst].Links[p.plane], &n.planes[p.plane], tr.Corrupted)
		if tr.Corrupted {
			p.nacked(tr.LastByte + cfg.NackLatency)
			continue
		}
		return p.delivered(tr), nil
	}
	return p.exhausted(), nil
}

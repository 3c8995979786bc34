// Package mpl is the user-level message-passing layer of the
// reproduction — the role MPI plays on the real machine (Section 4 of
// the paper: "an optimized implementation of MPI offers user-level
// communication, which reduces the communication overhead
// significantly"). It runs entirely over the simulated interconnect of
// internal/netsim: one rank per node, PIO-driven sends with the
// calibrated PowerMANNA software overheads, wormhole transit through the
// crossbar hierarchy, and polling receives.
//
// Like every model in this repository, the layer is functional as well
// as timed: messages carry real payload bytes, collectives combine real
// vectors, and the tests verify both the arithmetic and the timing
// invariants (causality, determinism, logarithmic collective depth).
//
// Per Section 4's first implementation, user traffic prefers one network
// plane of the duplicated system (plane A), leaving plane B to the
// operating system. Every send goes through a per-rank netsim.Transport,
// so the layer inherits the driver-level failover protocol: on a faulted
// plane A the message retries over plane B (contending with any attached
// OS stream) instead of silently vanishing, and the topology's shared
// route table amortises the per-message route lookup.
package mpl

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// World is one program run: a set of ranks (one per node) over an
// assembled network, each with its own local clock.
type World struct {
	net *netsim.Network
	drv driver
	// eps holds each rank's driver state.
	eps []endpoint
	// tps holds each rank's fault-aware transport — the only send path.
	tps []*netsim.Transport
}

// NewWorld builds a world over a topology, one rank per node, with the
// default failover protocol.
func NewWorld(t *topo.Topology) *World {
	return NewWorldWith(t, netsim.DefaultFailover())
}

// NewWorldWith builds a world whose per-rank transports run the given
// failover configuration — the knob fault campaigns turn to compare,
// say, cached against cacheless plane-down detection.
func NewWorldWith(t *topo.Topology, cfg netsim.FailoverConfig) *World {
	w := &World{
		net: netsim.New(t),
		drv: newDriver(),
		eps: make([]endpoint, t.Nodes()),
		tps: make([]*netsim.Transport, t.Nodes()),
	}
	for i := range w.tps {
		w.tps[i] = w.net.MustTransport(i, cfg)
	}
	return w
}

// Network exposes the underlying network — for fault injection and the
// degraded-mode counters, not for sending (sends go through the per-rank
// transports).
func (w *World) Network() *netsim.Network { return w.net }

// SetMetrics attaches the world to a registry: the network's send-path
// instruments plus the receive-wait views observed by Recv — the
// machine-wide histogram and one labelled view per rank. A nil registry
// detaches everything.
func (w *World) SetMetrics(m *metrics.Registry) {
	w.net.SetMetrics(m)
	for r := range w.eps {
		w.eps[r].wait = newRecvWait(m, r)
	}
}

// Ranks reports the number of ranks.
func (w *World) Ranks() int { return len(w.eps) }

// Now reports a rank's local time.
func (w *World) Now(rank int) sim.Time { return w.eps[rank].clock }

// MaxTime reports the latest local time across ranks (the makespan).
func (w *World) MaxTime() sim.Time { return maxClock(w.eps) }

// Stats reports message traffic.
func (w *World) Stats() (messages, payloadBytes int64) { return traffic(w.eps) }

// Compute advances a rank's clock by local computation time.
func (w *World) Compute(rank int, d sim.Time) { w.eps[rank].clock += d }

// Send posts payload from src to dst with a tag. The sender pays the
// user-level send path (setup plus PIO at line granularity, overlapped
// with the link once the FIFO pipeline is full); delivery is scheduled
// through the wormhole network. Send returns when the sender's CPU is
// free again (eager protocol — the paper's NI has no rendezvous).
func (w *World) Send(src, dst, tag int, payload []byte) error {
	if src == dst {
		return fmt.Errorf("mpl: self-send from rank %d", src)
	}
	entry := w.drv.sendEntry(&w.eps[src])
	d, err := w.tps[src].Send(entry, dst, len(payload))
	if err != nil {
		return err
	}
	if d.Failed {
		return fmt.Errorf("mpl: message %d->%d lost on both planes", src, dst)
	}
	w.drv.sent(&w.eps[src], entry, d.Done, len(payload))
	m := post(src, tag, payload)
	m.arrival = d.Done
	w.eps[dst].queue = append(w.eps[dst].queue, m)
	return nil
}

// Recv blocks rank dst until a message from src with the tag has fully
// arrived, drains it from the receive FIFO and returns the payload.
// Matching is FIFO within (src, tag).
func (w *World) Recv(dst, src, tag int) ([]byte, error) {
	if b, ok := w.drv.recv(&w.eps[dst], src, tag); ok {
		return b, nil
	}
	return nil, fmt.Errorf("mpl: rank %d has no message from %d tag %d", dst, src, tag)
}

// Reset clears clocks, queues and the network.
func (w *World) Reset() {
	w.net.Reset()
	for i := range w.eps {
		w.eps[i] = endpoint{wait: w.eps[i].wait}
	}
}

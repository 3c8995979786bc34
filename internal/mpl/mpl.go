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

	"powermanna/internal/comm"
	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// MetricRecvWait is the receive-side wait histogram: how long a rank
// sits polling between being ready to receive and the message's last
// byte arriving at its NI — zero when the message was already in the
// FIFO. Together with the netsim send-path instruments this completes
// the machine profile in pmfault --metrics: the send side shows what
// the network did to a message, this shows what the receiver felt.
const MetricRecvWait = "mpl.recv.wait"

// MetricRecvWaitRankPrefix prefixes the per-rank receive-wait views:
// the same observations as MetricRecvWait, broken out one histogram per
// rank as mpl.recv.wait.rNNN so a skewed receiver (one rank starved by
// a faulted plane while the rest idle) is visible instead of averaged
// away in the machine-wide histogram. Off, like every instrument, when
// no registry is attached.
const MetricRecvWaitRankPrefix = MetricRecvWait + ".r"

// recvWaitRankName is rank r's labelled histogram name, zero-padded to
// three digits so the name-sorted dump lists ranks numerically.
func recvWaitRankName(rank int) string {
	return fmt.Sprintf("%s%03d", MetricRecvWaitRankPrefix, rank)
}

// recvWaitBuckets shares the send-latency geometry (powers of two from
// 1 µs) so the two ends of the profile read side by side.
func recvWaitBuckets() []sim.Time {
	return metrics.TimeBuckets(sim.Microsecond, 2, 10)
}

// mplInstruments holds the world's instruments, resolved once at
// attach time; the zero value keeps every observation a nil-receiver
// no-op (metrics off).
type mplInstruments struct {
	recvWait *metrics.Histogram
	// rankWait holds the per-rank views, indexed by rank; empty when
	// metrics are off.
	rankWait []*metrics.Histogram
}

// observeRecvWait feeds one receive wait into the machine-wide
// histogram and the receiving rank's own view.
func (mi *mplInstruments) observeRecvWait(rank int, wait sim.Time) {
	mi.recvWait.ObserveTime(wait)
	if rank < len(mi.rankWait) {
		mi.rankWait[rank].ObserveTime(wait)
	}
}

// World is one program run: a set of ranks (one per node) over an
// assembled network, each with its own local clock.
type World struct {
	net    *netsim.Network
	params comm.PMParams
	clocks []sim.Time
	// tps holds each rank's fault-aware transport — the only send path.
	tps []*netsim.Transport
	// pending holds in-flight messages per destination rank, in arrival
	// order of posting (FIFO matching within a (src, tag) pair).
	pending [][]message
	sends   int64
	bytes   int64
	met     mplInstruments
}

type message struct {
	src, tag  int
	payload   []byte
	arrival   sim.Time // last byte at the destination NI
	firstByte sim.Time
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
		net:     netsim.New(t),
		params:  comm.DefaultPMParams(),
		clocks:  make([]sim.Time, t.Nodes()),
		tps:     make([]*netsim.Transport, t.Nodes()),
		pending: make([][]message, t.Nodes()),
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
	w.met.recvWait = m.TimeHistogram(MetricRecvWait, recvWaitBuckets())
	w.met.rankWait = nil
	if m == nil {
		return
	}
	w.met.rankWait = make([]*metrics.Histogram, w.Ranks())
	for r := range w.met.rankWait {
		w.met.rankWait[r] = m.TimeHistogram(recvWaitRankName(r), recvWaitBuckets())
	}
}

// Ranks reports the number of ranks.
func (w *World) Ranks() int { return len(w.clocks) }

// Now reports a rank's local time.
func (w *World) Now(rank int) sim.Time { return w.clocks[rank] }

// MaxTime reports the latest local time across ranks (the makespan).
func (w *World) MaxTime() sim.Time {
	var max sim.Time
	for _, t := range w.clocks {
		if t > max {
			max = t
		}
	}
	return max
}

// Stats reports message traffic.
func (w *World) Stats() (messages, payloadBytes int64) { return w.sends, w.bytes }

// Compute advances a rank's clock by local computation time.
func (w *World) Compute(rank int, d sim.Time) { w.clocks[rank] += d }

func (w *World) cycles(n int64) sim.Time { return w.params.CPUClock.Cycles(n) }

// Send posts payload from src to dst with a tag. The sender pays the
// user-level send path (setup plus PIO at line granularity, overlapped
// with the link once the FIFO pipeline is full); delivery is scheduled
// through the wormhole network. Send returns when the sender's CPU is
// free again (eager protocol — the paper's NI has no rendezvous).
func (w *World) Send(src, dst, tag int, payload []byte) error {
	if src == dst {
		return fmt.Errorf("mpl: self-send from rank %d", src)
	}
	start := w.clocks[src] + w.cycles(w.params.SendSetupCycles)
	// First line enters the FIFO before the head can leave.
	start += w.params.PIOWriteLine
	d, err := w.tps[src].Send(start, dst, len(payload))
	if err != nil {
		return err
	}
	if d.Failed {
		return fmt.Errorf("mpl: message %d->%d lost on both planes", src, dst)
	}
	// Sender occupancy: for messages beyond the FIFO, the CPU feeds lines
	// as the link drains them; the link is slower than PIO, so the CPU is
	// free once the tail fits in the FIFO.
	tail := len(payload) - w.params.FIFOBytes
	senderDone := start
	if tail > 0 {
		// CPU must stay until all but one FIFO's worth has left the node
		// (the last FIFO fill drains at the 60 MB/s link rate without it).
		senderDone = d.Done - sim.Time(w.params.FIFOBytes)*link.BytePeriod
		if senderDone < start {
			senderDone = start
		}
	} else {
		lines := (len(payload) + 63) / 64
		senderDone = start + sim.Time(lines)*w.params.PIOWriteLine
	}
	w.clocks[src] = senderDone

	cp := make([]byte, len(payload))
	copy(cp, payload)
	w.pending[dst] = append(w.pending[dst], message{
		src: src, tag: tag, payload: cp,
		arrival: d.Done, firstByte: d.Transit.FirstByte,
	})
	w.sends++
	w.bytes += int64(len(payload))
	return nil
}

// Recv blocks rank dst until a message from src with the tag has fully
// arrived, drains it from the receive FIFO and returns the payload.
// Matching is FIFO within (src, tag).
func (w *World) Recv(dst, src, tag int) ([]byte, error) {
	q := w.pending[dst]
	for i, m := range q {
		if m.src != src || m.tag != tag {
			continue
		}
		w.pending[dst] = append(q[:i:i], q[i+1:]...)
		// Poll until arrival, then drain and return to user.
		t := w.clocks[dst] + w.cycles(w.params.PollCycles)
		var wait sim.Time
		if m.arrival > t {
			wait = m.arrival - t
			t = m.arrival + w.cycles(w.params.PollCycles)/2
		}
		w.met.observeRecvWait(dst, wait)
		lines := (len(m.payload) + 63) / 64
		if lines < 1 {
			lines = 1
		}
		t += sim.Time(lines) * w.params.PIOReadLine
		t += w.cycles(w.params.RecvReturnCycles)
		w.clocks[dst] = t
		return m.payload, nil
	}
	return nil, fmt.Errorf("mpl: rank %d has no message from %d tag %d", dst, src, tag)
}

// Reset clears clocks, queues and the network.
func (w *World) Reset() {
	w.net.Reset()
	for i := range w.clocks {
		w.clocks[i] = 0
	}
	for i := range w.pending {
		w.pending[i] = nil
	}
	w.sends, w.bytes = 0, 0
}

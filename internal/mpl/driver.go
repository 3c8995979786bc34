package mpl

import (
	"fmt"

	"powermanna/internal/comm"
	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/sim"
)

// The user-level PIO driver of §3.3 and §5.2: the one message path both
// worlds run. A send pays its setup cycles and writes the first 64-byte
// line into the 4-line send FIFO before the head can leave; the CPU then
// feeds the remaining lines. A receive polls the status register until
// the message's last byte has arrived, drains the receive FIFO line by
// line and returns to the user. World and PWorld share every cost, the
// receive queue and the receive-wait instruments below; they differ
// only in how they execute a send (see the pworld.go package comment).

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

// recvWait is one rank's receive-wait instrument pair: the machine-wide
// MetricRecvWait histogram and the rank's own labelled view. The zero
// value (metrics off) observes nothing.
type recvWait struct {
	all, rank *metrics.Histogram
}

// newRecvWait resolves rank's pair in m; a nil registry leaves it off.
func newRecvWait(m *metrics.Registry, rank int) recvWait {
	if m == nil {
		return recvWait{}
	}
	return recvWait{
		all:  m.TimeHistogram(MetricRecvWait, recvWaitBuckets()),
		rank: m.TimeHistogram(recvWaitRankName(rank), recvWaitBuckets()),
	}
}

// message is one sent message: the payload copy in flight, then an
// entry in the destination's receive queue. In a PWorld it crosses psim
// mailboxes by value as immutable data; the receiving shard stamps the
// arrival on its own copy.
type message struct {
	src, tag int
	payload  []byte
	arrival  sim.Time // last byte at the destination NI
}

// post copies payload into a message, so the sender may reuse its
// buffer as soon as Send returns.
func post(src, tag int, payload []byte) message {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return message{src: src, tag: tag, payload: cp}
}

// endpoint is one rank's driver state in either world: its CPU clock,
// its receive queue in delivery order, the messages and payload bytes
// it has sent, and its receive-wait instruments.
type endpoint struct {
	clock        sim.Time
	queue        []message
	sends, bytes int64
	wait         recvWait
}

// maxClock reports the latest clock across ranks (the makespan).
func maxClock(eps []endpoint) sim.Time {
	var t sim.Time
	for _, e := range eps {
		t = max(t, e.clock)
	}
	return t
}

// traffic sums the messages and payload bytes the ranks have sent.
func traffic(eps []endpoint) (messages, payloadBytes int64) {
	for _, e := range eps {
		messages += e.sends
		payloadBytes += e.bytes
	}
	return messages, payloadBytes
}

// driver prices the PIO message path with the calibrated PowerMANNA
// software overheads.
type driver struct {
	p comm.PMParams
}

func newDriver() driver { return driver{p: comm.DefaultPMParams()} }

// lines is the number of 64-byte FIFO lines n payload bytes occupy, as
// a multiplier of the per-line PIO times.
func lines(n int) sim.Time { return sim.Time((n + 63) / 64) }

// sendEntry is when the message a rank starts sending now enters the
// network: after the setup cycles and the first line's FIFO write.
func (d driver) sendEntry(e *endpoint) sim.Time {
	return e.clock + d.p.CPUClock.Cycles(d.p.SendSetupCycles) + d.p.PIOWriteLine
}

// sent counts a delivered n-byte send that entered the network at
// entry and whose last byte arrived at done, and frees the sender's
// CPU. A message that fits the FIFO costs one PIO write per line. For
// a longer one the CPU feeds lines as the link drains them; the link
// is slower than PIO, so the CPU stays until all but one FIFO's worth
// has left the node, and the last fill drains at the 60 MB/s link rate
// without it.
func (d driver) sent(e *endpoint, entry, done sim.Time, n int) {
	e.sends++
	e.bytes += int64(n)
	if n <= d.p.FIFOBytes {
		e.clock = entry + lines(n)*d.p.PIOWriteLine
		return
	}
	e.clock = max(entry, done-sim.Time(d.p.FIFOBytes)*link.BytePeriod)
}

// recv completes a receive of the oldest queued message from src with
// tag (FIFO matching within (src, tag)): one status poll, polling on
// until the last byte arrives if it has not, one PIO drain per line (at
// least one) and the return to the user. The rank's clock moves to the
// completion and the poll wait is observed. ok is false when no such
// message is queued.
func (d driver) recv(e *endpoint, src, tag int) (payload []byte, ok bool) {
	for i, m := range e.queue {
		if m.src != src || m.tag != tag {
			continue
		}
		e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
		poll := d.p.CPUClock.Cycles(d.p.PollCycles)
		t := e.clock + poll
		var wait sim.Time
		if m.arrival > t {
			wait = m.arrival - t
			t = m.arrival + poll/2
		}
		e.wait.all.ObserveTime(wait)
		e.wait.rank.ObserveTime(wait)
		t += max(lines(len(m.payload)), 1) * d.p.PIOReadLine
		e.clock = t + d.p.CPUClock.Cycles(d.p.RecvReturnCycles)
		return m.payload, true
	}
	return nil, false
}

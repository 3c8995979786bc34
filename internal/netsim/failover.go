// Plane-failover routing over the duplicated communication system.
//
// The paper's Section 4 motivates the two network planes with bandwidth
// and with software separation (system software on one network,
// applications on the other), and Section 3.3 gives every message a CRC
// "so communication is not only efficient but also reliable". This file
// supplies the missing piece between the two: a driver-level reliability
// protocol that detects a dead or degraded plane A and re-sends over
// plane B, with every detection and retry cost accounted in simulated
// time. It is the mechanism the fault campaigns (internal/fault,
// cmd/pmfault) exercise.
//
// The protocol is deliberately simple — the PowerMANNA link interface has
// no hardware retry, so reliability is the driver's job, exactly like the
// PIO-driven send path of Section 3.3:
//
//   - the sender posts the message on the preferred plane and arms an
//     acknowledgment timeout; silence (cut wire, circuit that never
//     forms) is detected at entry + AckTimeout.
//   - a receiver whose CRC check fails returns a NACK, detected at
//     LastByte + NackLatency — much sooner than the timeout.
//   - either way the sender backs off RetryBackoff and retries on the
//     other plane. Soft failures (timeouts, NACKs) allow re-cycling the
//     planes up to MaxAttempts, since congestion and death look alike
//     from the sender; a severed wire is hard evidence that rules its
//     plane out. A message exhausting every option is reported failed,
//     never silently dropped.
//   - a send FIFO stalled beyond SetupTimeout is abandoned without ever
//     entering the network — the driver polls the status register
//     (Section 3.3) and can tell the interface is wedged.
//
// The whole policy — plane order, plane-down cache skips, verdict
// accounting, the Delivery and its Decomp — lives in one type,
// protocol. Two executors drive it and differ only in how an attempt
// crosses the network: Transport.sendWith runs each attempt as one
// synchronous Network.send call, and psend (psend.go) runs it as a
// split-phase walk through the partitioned network.
package netsim

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// Calibrated failover-protocol constants. The paper's system-level bound
// is "less than 4 µs latency for small messages" (Section 1); detection
// windows are sized a small multiple above it so a healthy-but-contended
// plane is not abandoned prematurely.
const (
	// DefaultSetupTimeout bounds the wait at any single busy resource —
	// twice the paper's small-message latency bound.
	DefaultSetupTimeout = 8 * sim.Microsecond
	// DefaultAckTimeout is the sender's wait for the delivery
	// acknowledgment — three times the latency bound, covering the ack's
	// own return trip.
	DefaultAckTimeout = 12 * sim.Microsecond
	// DefaultNackLatency is the receiver's CRC-fail NACK return time: a
	// small message back across the (healthy) plane plus driver handling.
	DefaultNackLatency = 1 * sim.Microsecond
	// DefaultRetryBackoff is the driver pause between detecting a failed
	// attempt and re-posting on the other plane (status-register polls
	// and send-FIFO refill, Section 3.3).
	DefaultRetryBackoff = 500 * sim.Nanosecond
	// DefaultReprobeInterval is how long a Transport's plane-down cache
	// keeps routing around a plane that failed an attempt before risking
	// a fresh probe — long enough that a steady message stream stops
	// paying the ack timeout per message, short enough that a healed
	// plane (a stall window ending, a stuck arbiter resetting) is picked
	// back up within a campaign.
	DefaultReprobeInterval = 200 * sim.Microsecond
	// DefaultPlaneDownCheck is the cached-fast-path cost: the driver
	// consulting its own plane-down state (a handful of loads and a
	// branch, no uncached I/O) before skipping straight to the other
	// plane.
	DefaultPlaneDownCheck = 50 * sim.Nanosecond
	// DefaultMaxAttempts bounds the real send attempts per message.
	// Soft failures (setup timeout, NACK) are ambiguous between a dead
	// plane and pathological congestion, so the driver re-cycles the
	// planes a few times before declaring the message lost; hard
	// evidence (a severed wire) rules a plane out immediately.
	DefaultMaxAttempts = 6
	// DefaultCRCRetries is the same-plane re-send budget on a CRC NACK.
	// A NACK is proof the plane carried the frame end to end — the
	// circuit formed and the body arrived, merely damaged — so one
	// re-send on the same plane is cheaper than charging the failover
	// path and poisoning the plane-down cache for a transient bit error.
	DefaultCRCRetries = 1
)

// FailoverConfig calibrates the driver-level reliability protocol.
type FailoverConfig struct {
	// SetupTimeout bounds the wait at any single busy resource before
	// the plane is declared down (catches stuck-busy crossbar outputs
	// and wedged send FIFOs).
	SetupTimeout sim.Time
	// AckTimeout is how long the sender waits for the delivery
	// acknowledgment before assuming the plane swallowed the message.
	AckTimeout sim.Time
	// NackLatency is the return time of a receiver's CRC-fail NACK.
	NackLatency sim.Time
	// RetryBackoff is the pause between detection and the retry.
	RetryBackoff sim.Time
	// ReprobeInterval is how long a Transport's plane-down cache routes
	// around a failed plane before the next real probe. Zero disables
	// the cache (every send pays the full detection window again —
	// the pre-Transport behaviour, and what Network.SendReliable does).
	ReprobeInterval sim.Time
	// PlaneDownCheck is the per-message cost of consulting the plane-
	// down cache and skipping a known-dead plane.
	PlaneDownCheck sim.Time
	// MaxAttempts bounds real attempts per message across all planes;
	// zero means one attempt per wired plane (no soft-failure retries).
	// Planes with hard evidence of death (severed wire) are never
	// retried within a send.
	MaxAttempts int
	// CRCRetries is the per-message budget of same-plane re-sends on a
	// corrupt verdict before the driver charges the failover path. Zero
	// disables the retry (every NACK fails over immediately — the
	// pre-retry behaviour). Retries count against MaxAttempts.
	CRCRetries int
}

// DefaultFailover returns the calibrated protocol constants.
func DefaultFailover() FailoverConfig {
	return FailoverConfig{
		SetupTimeout:    DefaultSetupTimeout,
		AckTimeout:      DefaultAckTimeout,
		NackLatency:     DefaultNackLatency,
		RetryBackoff:    DefaultRetryBackoff,
		ReprobeInterval: DefaultReprobeInterval,
		PlaneDownCheck:  DefaultPlaneDownCheck,
		MaxAttempts:     DefaultMaxAttempts,
		CRCRetries:      DefaultCRCRetries,
	}
}

// PlaneCounters accumulates one network plane's degraded-mode statistics
// across SendReliable calls.
type PlaneCounters struct {
	// Attempts counts sends attempted on this plane.
	Attempts int64
	// Delivered counts messages that arrived intact via this plane.
	Delivered int64
	// Stalled counts attempts whose entry was deferred by an NI stall.
	Stalled int64
	// LinkDown counts attempts aborted by a severed wire.
	LinkDown int64
	// SetupTimeouts counts attempts aborted waiting on a busy resource
	// (stuck-busy output, wedged FIFO, or pathological congestion).
	SetupTimeouts int64
	// CRCErrors counts attempts delivered corrupt and NACKed.
	CRCErrors int64
	// CRCRetries counts NACKed attempts re-sent on the same plane under
	// the CRCRetries budget instead of failing over.
	CRCRetries int64
	// FailedOver counts attempts abandoned to the other plane.
	FailedOver int64
	// SkippedDown counts sends that skipped this plane on a plane-down
	// cache hit, paying only the cached status check instead of the full
	// detection window (Transport only; SendReliable is cacheless).
	SkippedDown int64
	// OSMessages counts background OS-stream messages injected on this
	// plane (osstream.go; only plane B carries the stream).
	OSMessages int64
	// OSDropped counts OS-stream messages the plane failed to carry
	// (severed wire, unrouted pair).
	OSDropped int64
}

// PlaneCounterSet renders plane p's counters as an ordered
// stats.CounterSet — the degraded-mode report of cmd/pmfault.
func (n *Network) PlaneCounterSet(p int) stats.CounterSet { return n.planes[p].counterSet(p) }

// counterSet renders one plane's counters under its report title.
func (c PlaneCounters) counterSet(p int) stats.CounterSet {
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

// add sums o into c.
func (c *PlaneCounters) add(o PlaneCounters) {
	c.Attempts += o.Attempts
	c.Delivered += o.Delivered
	c.Stalled += o.Stalled
	c.LinkDown += o.LinkDown
	c.SetupTimeouts += o.SetupTimeouts
	c.CRCErrors += o.CRCErrors
	c.CRCRetries += o.CRCRetries
	c.FailedOver += o.FailedOver
	c.SkippedDown += o.SkippedDown
	c.OSMessages += o.OSMessages
	c.OSDropped += o.OSDropped
}

// Plane returns plane p's raw counters.
func (n *Network) Plane(p int) PlaneCounters { return n.planes[p] }

func planeName(p int) string {
	if p == topo.NetworkA {
		return "A"
	}
	return "B"
}

// Decomp splits a send's sender-observed latency into the four places
// the time can go, the per-message decomposition the telemetry layer
// aggregates per tenant (DESIGN.md §11):
//
//   - Arb: contention — send-FIFO drain at the source NI, busy wires,
//     crossbar output arbitration — on the attempt that delivered. The
//     residual of the attempt's span over its ideal transit, so every
//     wait the wormhole walk absorbed lands here.
//   - Wire: the zero-contention transit of the delivering attempt —
//     propagation, route setup and body streaming on an idle path. A
//     pure function of the route and payload.
//   - Detect: time spent learning that attempts failed — ack-timeout
//     windows, NACK returns, FIFO-stall abandons, and the cached
//     plane-down status checks (a failed CRC attempt's whole window,
//     its wire time included, is detection: the transfer bought no
//     progress, only the NACK's evidence).
//   - Retry: the driver's backoff pauses between a detection and the
//     re-post on the next plane.
//
// The components are exact, not sampled: for every delivered message
// Arb + Wire + Detect + Retry == Latency(), and for a failed one
// Detect + Retry == Latency() with Arb and Wire zero (the message
// never completed a transit). Unit-tested in decomp_test.go.
type Decomp struct {
	Arb, Wire, Detect, Retry sim.Time
}

// Total is the decomposition's sum — equal to Delivery.Latency().
func (c Decomp) Total() sim.Time { return c.Arb + c.Wire + c.Detect + c.Retry }

// Delivery describes the outcome of one reliable send.
type Delivery struct {
	// Transit is the successful attempt's timing (zero if Failed).
	Transit Transit
	// Plane is the plane that delivered the message.
	Plane int
	// Attempts counts real send attempts (1 = delivered first try; more
	// means failovers and soft-failure retries preceded it).
	Attempts int
	// SkippedDown counts planes skipped on a plane-down cache hit before
	// this delivery (Transport sends only).
	SkippedDown int
	// Retried marks a delivery that did not land on the first-choice
	// plane — either a real failed attempt preceded it or the plane-down
	// cache skipped plane A outright.
	Retried bool
	// Failed marks a message both planes failed to carry.
	Failed bool
	// PayloadBytes is the message's payload length as requested — echoed
	// on every outcome so open-loop senders with many messages in flight
	// can account delivered bytes from the callback alone.
	PayloadBytes int
	// Sent is the requested entry time; Done is delivery (intact
	// LastByte) or, for failed messages, when the sender gave up.
	Sent, Done sim.Time
	// Decomp splits Latency() exactly into arbitration, wire, detection
	// and retry time (see Decomp).
	Decomp Decomp
}

// Latency is the end-to-end time the sender observed, including every
// detection window, backoff and retry.
func (d Delivery) Latency() sim.Time { return d.Done - d.Sent }

// SendReliable sends payloadBytes from node src to node dst under the
// failover protocol: plane A first (applications own plane A, Section 4),
// then plane B on timeout or NACK. All protocol costs — stall deferral,
// ack timeout, NACK return, backoff — land in the returned Delivery's
// times. A message failing on both planes returns with Failed set (not an
// error: degraded operation is a modelled outcome, and the campaign
// tables count it).
//
// SendReliable is the cacheless entry point: every call pays the full
// detection window on a dead plane. Long-lived senders should hold a
// Transport (transport.go) instead — it runs the identical protocol with
// the plane-down cache on top.
func (n *Network) SendReliable(at sim.Time, src, dst, payloadBytes int, cfg FailoverConfig) (Delivery, error) {
	if src < 0 || src >= n.topo.Nodes() {
		return Delivery{}, fmt.Errorf("netsim: node out of range (%d, %d)", src, dst)
	}
	// An ephemeral transport shares the protocol body; the zeroed
	// ReprobeInterval disables the plane-down cache.
	eph := Transport{net: n, src: src}
	cfg.ReprobeInterval = 0
	return eph.sendWith(at, dst, payloadBytes, cfg)
}

// errorsAs is errors.As specialised to *DownError; spelled out to keep
// the hot send path free of reflection.
func errorsAs(err error, target **DownError) bool {
	d, ok := err.(*DownError)
	if ok {
		*target = d
	}
	return ok
}

// sendSink is where one executor's protocol bookkeeping lands: the
// ledger of the synchronous Network or of one partitioned shard.
type sendSink struct {
	*ledger
	// tenantLat and tenantWait, when set, additionally receive a labelled
	// send's delivered latency and its decomposition.
	tenantLat  *metrics.Histogram
	tenantWait *[4]*metrics.Histogram
}

// sendState threads one reliable send's accounting through its plane
// attempts: the sender-observed clock and the attempt/skip tallies.
type sendState struct {
	// at is the requested entry time; elapsed accumulates every
	// detection window, status check and backoff since.
	at, elapsed sim.Time
	// detect and retry split elapsed for the latency decomposition:
	// detection windows (ack timeouts, NACK returns, stall abandons,
	// plane-down status checks) versus backoff pauses. Every update to
	// elapsed maintains elapsed == detect + retry, which is what makes
	// Decomp sum to Latency() exactly.
	detect, retry sim.Time
	attempts      int
	// maxAttempts is the resolved real-attempt budget; crcLeft the
	// remaining same-plane re-sends the CRCRetries budget allows.
	maxAttempts int
	crcLeft     int
	// skipped lists the planes pass 1 skipped on a plane-down cache hit,
	// in skip order; nskipped counts them.
	skipped  [ni.LinksPerNode]int
	nskipped int
	// hard marks planes ruled out by hard evidence (severed wire) —
	// never worth a retry within this send.
	hard [ni.LinksPerNode]bool
}

// attemptAt is the sender's clock for the next attempt.
//
//pmlint:hotpath
func (st *sendState) attemptAt() sim.Time { return st.at + st.elapsed }

// planeOrder is the preferred plane order: applications own plane A
// (Section 4), plane B is the fallback.
var planeOrder = [ni.LinksPerNode]int{topo.NetworkA, topo.NetworkB}

// protocol is one reliable send under the failover policy. An executor
// drives it in a loop — next picks the plane, enter starts the attempt,
// the executor carries it across the network, and exactly one verdict
// method (failed, nacked, delivered) reports how it ended — until
// delivered returns the outcome or next runs dry and exhausted does.
//
// The cursor makes three passes. Pass 1 walks the preferred order,
// skipping planes the plane-down cache marks dead for the price of a
// status check. Pass 2 probes the skipped planes for real before any
// budget goes to retries: the cache is a latency optimisation, never an
// availability decision, so a send fails only after a real attempt on
// every wired plane. Pass 3 keeps alternating planes without hard
// evidence of death until MaxAttempts is spent, because congestion and
// death are indistinguishable from the sender.
type protocol struct {
	sendState
	tp           *Transport
	src, dst     int
	payloadBytes int
	cfg          *FailoverConfig
	sink         sendSink

	// pass and idx are the cursor; roundStart is the attempt count when
	// the current pass-3 round began (a round without attempts ends the
	// send); again marks a same-plane CRC re-send as the next attempt.
	pass, idx, roundStart int
	again                 bool

	// The current attempt: its plane and route, when the sender began it
	// (start) and when the header entered the network (entry).
	plane        int
	path         topo.Path
	start, entry sim.Time
}

// newProtocol starts one reliable send from the transport's node: the
// resolved attempt budget (zero MaxAttempts means one real attempt per
// wired plane) and the same-plane CRC re-send budget.
func newProtocol(tp *Transport, at sim.Time, dst, payloadBytes int, cfg *FailoverConfig, sink sendSink) protocol {
	ma := cfg.MaxAttempts
	if ma <= 0 {
		ma = ni.LinksPerNode
	}
	return protocol{
		sendState: sendState{at: at, maxAttempts: ma, crcLeft: cfg.CRCRetries},
		tp:        tp, src: tp.src, dst: dst, payloadBytes: payloadBytes,
		cfg: cfg, sink: sink,
	}
}

// next moves the cursor to the plane of the next attempt, charging the
// plane-down cache skips on the way. False means every option is spent:
// the executor reports exhausted.
//
//pmlint:hotpath
func (p *protocol) next() bool {
	if p.again {
		p.again = false
		return true
	}
	for p.attempts < p.maxAttempts {
		switch p.pass {
		case 0: // pass 1: preferred order, plane-down cache skips
			if p.idx == len(planeOrder) {
				p.pass, p.idx = 1, 0
				continue
			}
			plane := planeOrder[p.idx]
			p.idx++
			if !p.skipDown(plane) {
				p.plane = plane
				return true
			}
		case 1: // pass 2: probe the skipped planes before burning retries
			if p.idx == p.nskipped {
				p.pass, p.idx, p.roundStart = 2, 0, p.attempts
				continue
			}
			p.plane = p.skipped[p.idx]
			p.idx++
			return true
		default: // pass 3: alternate soft-failed planes until the budget runs out
			if p.idx == len(planeOrder) {
				if p.attempts == p.roundStart {
					return false // only hard-down or unwired planes remain
				}
				p.idx, p.roundStart = 0, p.attempts
			}
			plane := planeOrder[p.idx]
			p.idx++
			if !p.hard[plane] {
				p.plane = plane
				return true
			}
		}
	}
	return false
}

// skipDown reports whether pass 1 passes over the plane because the
// plane-down cache marks it dead. A wired plane skipped this way costs
// only the cached status check, not the full detection window; an
// unwired one is passed over for free.
//
//pmlint:hotpath
func (p *protocol) skipDown(plane int) bool {
	pd := &p.tp.down[plane]
	if !pd.down || p.cfg.ReprobeInterval <= 0 || p.attemptAt() >= pd.reprobeAt {
		return false
	}
	if _, err := p.tp.Route(p.dst, plane); err != nil {
		return true // not wired: nothing to skip
	}
	p.sink.planes[plane].SkippedDown++
	p.skipped[p.nskipped] = plane
	p.nskipped++
	if p.sink.rec.Enabled() {
		p.sink.rec.InstantArg(trace.NodeTrack(p.src), "failover", "plane-down-hit",
			p.attemptAt(), "plane "+planeName(plane))
	}
	p.elapsed += p.cfg.PlaneDownCheck
	p.detect += p.cfg.PlaneDownCheck
	return true
}

// enter starts a real attempt on the cursor's plane. It reports false
// when there is nothing to carry across the network: the plane is not
// wired (software knows at once, no cost), or the send FIFO stayed
// wedged past SetupTimeout and the attempt was abandoned at the source.
// On true, path and entry describe the attempt.
//
//pmlint:hotpath
func (p *protocol) enter() bool {
	path, err := p.tp.Route(p.dst, p.plane)
	if err != nil {
		return false
	}
	p.path, p.start = path, p.attemptAt()
	pc := &p.sink.planes[p.plane]
	p.attempts++
	pc.Attempts++
	p.entry = p.tp.net.nis[p.src].Links[p.plane].ReadyAt(p.start)
	if p.entry > p.start {
		pc.Stalled++
	}
	if p.cfg.SetupTimeout > 0 && p.entry > p.start+p.cfg.SetupTimeout {
		// The send FIFO never drained: abandon the plane without entering
		// the network.
		pc.SetupTimeouts++
		p.failOver(p.start+p.cfg.SetupTimeout, "fifo-stall")
		return false
	}
	return true
}

// failed is the verdict of an attempt the network swallowed: a severed
// wire (cut, hard evidence against the plane) or a circuit that never
// formed. The sender learns of it at detected.
//
//pmlint:hotpath
func (p *protocol) failed(detected sim.Time, cut bool) {
	pc := &p.sink.planes[p.plane]
	cause := "setup-timeout"
	if cut {
		pc.LinkDown++
		p.hard[p.plane] = true
		cause = "link-down"
	} else {
		pc.SetupTimeouts++
	}
	p.failOver(detected, cause)
}

// nacked is the verdict of an attempt the receiver's CRC check rejected,
// the NACK reaching the sender at detected. A NACK proves the plane
// carried the frame end to end — transient corruption, not a dead plane
// — so the bounded same-plane budget is spent before the failover path
// is charged.
//
//pmlint:hotpath
func (p *protocol) nacked(detected sim.Time) {
	if p.crcLeft > 0 && p.attempts < p.maxAttempts {
		p.crcLeft--
		p.sink.planes[p.plane].CRCRetries++
		p.traceAttempt(detected, "crc-retry")
		p.backOff(detected)
		p.again = true
		return
	}
	p.failOver(detected, "crc-nack")
}

// failOver abandons the current plane for this send: the plane-down
// cache marks it dead, and the sender backs off before the next plane.
//
//pmlint:hotpath
func (p *protocol) failOver(detected sim.Time, cause string) {
	p.sink.planes[p.plane].FailedOver++
	p.tp.markDown(p.plane, detected, *p.cfg)
	p.traceAttempt(detected, cause)
	p.backOff(detected)
}

// backOff advances the sender's clock past a failed attempt: everything
// from the attempt's start to its detection is detection time — for a
// NACKed attempt its wire time too, since the transfer bought no
// progress, only the NACK's evidence — then the retry backoff.
//
//pmlint:hotpath
func (p *protocol) backOff(detected sim.Time) {
	p.elapsed = detected + p.cfg.RetryBackoff - p.at
	p.detect += detected - p.start
	p.retry += p.cfg.RetryBackoff
}

// traceAttempt records one failed attempt: the detection window (start
// to failure detection) into the metrics histogram, and — when tracing —
// a span labelled with the cause ("fifo-stall", "link-down",
// "setup-timeout", "crc-retry", "crc-nack").
//
//pmlint:hotpath
func (p *protocol) traceAttempt(detected sim.Time, cause string) {
	p.sink.met.detection.ObserveTime(detected - p.start)
	if p.sink.rec.Enabled() {
		p.sink.rec.SpanArg(trace.NodeTrack(p.src), "failover", "attempt "+planeName(p.plane),
			p.start, detected, cause)
	}
}

// delivered is the verdict of an intact transit: the protocol is over.
// The plane is known healthy again, and the latency splits exactly into
// the attempt's contention and ideal wire time plus every earlier
// detection window and backoff.
//
//pmlint:hotpath
func (p *protocol) delivered(tr Transit) Delivery {
	p.tp.down[p.plane] = planeDown{}
	wire := p.tp.net.idealTransit(p.path, p.payloadBytes)
	d := Delivery{
		Transit:      tr,
		Plane:        p.plane,
		Attempts:     p.attempts,
		Retried:      p.attempts > 1 || p.nskipped > 0,
		SkippedDown:  p.nskipped,
		PayloadBytes: p.payloadBytes,
		Sent:         p.at,
		Done:         tr.LastByte,
		Decomp: Decomp{
			Arb:    tr.LastByte - p.start - wire,
			Wire:   wire,
			Detect: p.detect,
			Retry:  p.retry,
		},
	}
	p.observe(d)
	return d
}

// exhausted ends a send every option failed: the message is reported
// failed, never silently dropped.
//
//pmlint:hotpath
func (p *protocol) exhausted() Delivery {
	if p.sink.rec.Enabled() {
		p.sink.rec.InstantArg(trace.NodeTrack(p.src), "failover", "send-failed", p.attemptAt(),
			fmt.Sprintf("%d->%d after %d attempts", p.src, p.dst, p.attempts)) //pmlint:allow hotpath trace-gated formatting on the all-planes-failed path
	}
	d := Delivery{Attempts: p.attempts, SkippedDown: p.nskipped, Failed: true,
		PayloadBytes: p.payloadBytes, Sent: p.at, Done: p.attemptAt(),
		Decomp: Decomp{Detect: p.detect, Retry: p.retry}}
	p.observe(d)
	return d
}

// observe tallies a finished send into the sink's instruments.
//
//pmlint:hotpath
func (p *protocol) observe(d Delivery) {
	p.sink.met.observeSend(d)
	if d.Failed {
		return
	}
	p.sink.tenantLat.ObserveTime(d.Latency())
	if p.sink.tenantWait != nil {
		observeDecomp(p.sink.tenantWait, d.Decomp)
	}
}

// recordArrival is the receiver's half of a completed circuit: the
// destination link interface counts the frame or its CRC error, and the
// plane counters the delivery or the corruption, wherever the frame
// lands.
func recordArrival(lif *ni.LinkIF, pc *PlaneCounters, corrupt bool) {
	if corrupt {
		lif.RecordCRCError()
		pc.CRCErrors++
		return
	}
	lif.RecordFrame()
	pc.Delivered++
}

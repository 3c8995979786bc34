// Metrics wiring for the network and its transports: the deterministic
// registry instruments (internal/metrics) the send path feeds whether
// or not tracing is enabled. Instruments are resolved once at attach
// time and held as nil-safe pointers, so the hot path pays one nil
// check per observation — the same always-on contract as the nil trace
// recorder.

package netsim

import (
	"powermanna/internal/metrics"
	"powermanna/internal/sim"
)

// Metric names the network feeds; pmfault --metrics dumps them.
const (
	// MetricSends counts reliable sends entering the failover protocol.
	MetricSends = "netsim.send.total"
	// MetricDelivered counts sends that delivered on some plane.
	MetricDelivered = "netsim.send.delivered"
	// MetricFailed counts sends both planes failed to carry.
	MetricFailed = "netsim.send.failed"
	// MetricRetried counts deliveries that missed their first-choice
	// plane.
	MetricRetried = "netsim.send.retried"
	// MetricPlaneDownHits counts plane attempts short-circuited by the
	// plane-down cache; MetricPlaneDownHits over MetricSends is the cache
	// hit ratio the degradation curve bends on.
	MetricPlaneDownHits = "netsim.plane-down.hits"
	// MetricSendLatency is the sender-observed latency histogram of
	// delivered messages, detection windows and retries included.
	MetricSendLatency = "netsim.send.latency"
	// MetricDetection is the per-failed-attempt detection-window
	// histogram: how long the driver took to learn an attempt died
	// (ack timeout, NACK return or FIFO-stall abandon).
	MetricDetection = "netsim.failover.detection"
	// MetricSendLatencyTenantPrefix prefixes the per-tenant delivered-
	// latency histograms: one histogram per label declared via
	// Transport.SetTenant or PartNetwork.SetTenants, on finer buckets
	// than the machine-wide MetricSendLatency so tail percentiles
	// (internal/traffic SLOs) resolve within a quasi-√2 step.
	MetricSendLatencyTenantPrefix = MetricSendLatency + "."
	// MetricSendWaitPrefix prefixes the latency-decomposition histograms:
	// every delivered message's latency split exactly into the Decomp
	// components, machine-wide as netsim.send.wait.<component> and — for
	// labelled sends — per tenant as netsim.send.wait.<component>.<name>.
	// The sums are exact: across any set of delivered messages the four
	// component histogram sums add up to the latency histogram's sum.
	MetricSendWaitPrefix = "netsim.send.wait."
)

// waitComponents orders the Decomp components as the wait histogram
// arrays index them; the names complete MetricSendWaitPrefix.
var waitComponents = [4]string{"arb", "wire", "detect", "retry"}

// latencyBuckets spans the send-latency range of interest: from the
// paper's sub-4 µs happy path up past several stacked 12 µs detection
// windows.
func latencyBuckets() []sim.Time {
	return metrics.TimeBuckets(sim.Microsecond, 2, 10) // 1 µs .. 512 µs
}

// tenantLatencyBuckets is the per-tenant latency ladder: a quasi-√2
// geometric sequence (1, 1.5, 2, 3, 4, 6, ... µs) spanning the same
// range as latencyBuckets with twice the resolution, because SLO
// percentiles are read off these buckets and a factor-2 ladder would
// round a p999 up to double its true value.
func tenantLatencyBuckets() []sim.Time {
	out := make([]sim.Time, 0, 20)
	for b := sim.Microsecond; b <= 512*sim.Microsecond; b *= 2 {
		out = append(out, b, b+b/2)
	}
	return out
}

// waitBuckets spans the component-wait range: from a single cached
// plane-down check (50 ns) up past several stacked detection windows.
// Finer at the bottom than latencyBuckets because the wire component of
// a small message is a few hundred nanoseconds.
func waitBuckets() []sim.Time {
	return metrics.TimeBuckets(50*sim.Nanosecond, 2, 14) // 50 ns .. 409.6 µs
}

// waitHistograms resolves the four decomposition histograms under the
// component names plus suffix: "" for the machine-wide instruments,
// "."+name for a tenant's (netsim.send.wait.<component>.<name>).
func waitHistograms(m *metrics.Registry, suffix string) [4]*metrics.Histogram {
	var out [4]*metrics.Histogram
	for i, comp := range waitComponents {
		out[i] = m.TimeHistogram(MetricSendWaitPrefix+comp+suffix, waitBuckets())
	}
	return out
}

// tenantHistograms resolves one tenant label's delivered-latency
// histogram and its four decomposition histograms (all nil when m is).
func tenantHistograms(m *metrics.Registry, name string) (*metrics.Histogram, [4]*metrics.Histogram) {
	return m.TimeHistogram(MetricSendLatencyTenantPrefix+name, tenantLatencyBuckets()), waitHistograms(m, "."+name)
}

// observeDecomp feeds one delivered message's decomposition into a
// component histogram array (no-ops when unresolved).
//
//pmlint:hotpath
func observeDecomp(w *[4]*metrics.Histogram, c Decomp) {
	w[0].ObserveTime(c.Arb)
	w[1].ObserveTime(c.Wire)
	w[2].ObserveTime(c.Detect)
	w[3].ObserveTime(c.Retry)
}

// netInstruments holds the network's resolved instruments; the zero
// value (all nil) is the "metrics off" state.
type netInstruments struct {
	sends, delivered, failed, retried, planeDownHits *metrics.Counter
	sendLatency, detection                           *metrics.Histogram
	// wait holds the machine-wide latency-decomposition histograms in
	// waitComponents order; every delivered send feeds them.
	wait [4]*metrics.Histogram
	// tenantLat holds the per-tenant delivered-latency histograms of a
	// partitioned shard, indexed by the tenant id SendAsyncTenant carries
	// (PartNetwork.SetTenants); nil when unlabelled. tenantWait holds the
	// matching per-tenant decomposition histograms.
	tenantLat  []*metrics.Histogram
	tenantWait [][4]*metrics.Histogram
}

// SetMetrics attaches a metrics registry: the failover send path feeds
// send outcome counters and latency/detection histograms, and every
// crossbar feeds the shared arbitration instruments plus the per-plane
// arbitration-wait histogram of the plane it serves (per the topology's
// CrossbarPlanes flood; unreachable crossbars feed only the shared
// instrument). A nil registry detaches everything — the default state,
// costing the instrumented paths one nil check per observation.
func (n *Network) SetMetrics(m *metrics.Registry) {
	n.mreg = m
	n.met = newNetInstruments(m)
	planes := n.topo.CrossbarPlanes()
	for i, x := range n.xbars {
		label := ""
		if planes[i] >= 0 {
			label = planeName(planes[i])
		}
		x.Metrics(m, label)
	}
}

// newNetInstruments resolves the send path's instruments in m; a nil
// registry yields the "metrics off" zero value.
func newNetInstruments(m *metrics.Registry) netInstruments {
	return netInstruments{
		sends:         m.Counter(MetricSends),
		delivered:     m.Counter(MetricDelivered),
		failed:        m.Counter(MetricFailed),
		retried:       m.Counter(MetricRetried),
		planeDownHits: m.Counter(MetricPlaneDownHits),
		sendLatency:   m.TimeHistogram(MetricSendLatency, latencyBuckets()),
		detection:     m.TimeHistogram(MetricDetection, latencyBuckets()),
		wait:          waitHistograms(m, ""),
	}
}

// observeSend tallies one completed reliable send.
func (mi *netInstruments) observeSend(d Delivery) {
	mi.sends.Inc()
	mi.planeDownHits.Add(int64(d.SkippedDown))
	if d.Failed {
		mi.failed.Inc()
		return
	}
	mi.delivered.Inc()
	mi.sendLatency.ObserveTime(d.Latency())
	observeDecomp(&mi.wait, d.Decomp)
	if d.Retried {
		mi.retried.Inc()
	}
}

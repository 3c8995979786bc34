// Single-run fault scenarios: the campaign fault schedules exposed for
// one observed run instead of a rate ladder. cmd/pmstat uses this to
// put a deterministic mid-run link-cut scenario under the windowed
// telemetry views — the "when did the burn start" story needs one run
// with a known fault schedule, not a sweep.
package fault

import (
	"fmt"
	"math/rand"

	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// ApplyTrafficScenario draws the traffic campaign's plane-A fault
// schedule for the given count — node uplink cuts alternating with
// central-stage wire cuts, times in the first half of the horizon —
// applies it to the network up front (sound on the partitioned
// datapath: every fault reduces to time-parameterized CutWire) and
// returns the applied events for display. The schedule is the same
// pure function of (seed, count, topology, horizon) RunTraffic uses
// for its ladder rows, so a pmstat scenario run is the windowed view
// of the matching pmfault --traffic row. The count must not be
// negative.
func ApplyTrafficScenario(net *netsim.Network, t *topo.Topology, count int, horizon sim.Time, seed int64) []Event {
	if count < 0 {
		panic(fmt.Sprintf("fault: negative traffic fault count %d", count))
	}
	events := trafficSchedule(t, count, horizon,
		rand.New(rand.NewSource(seed+faultSeedStride*int64(count))))
	inj := NewInjector(net, events)
	inj.applyAll()
	return inj.Events()
}

package netsim

import (
	"testing"

	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// fuzzRand is a splitmix64 stream: the fuzz target derives its whole
// scenario from one seed without touching math/rand's global state.
type fuzzRand uint64

func (r *fuzzRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *fuzzRand) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a time in [lo, hi).
func (r *fuzzRand) between(lo, hi sim.Time) sim.Time {
	return lo + sim.Time(r.next()%uint64(hi-lo))
}

// fuzzScenario derives a faulted send sequence from a seed: 1–4 faults
// (a cut wire, a corruption window or an NI stall) on random System256
// routes, then 1–8 sends spaced 60–120 µs apart, 80% of them on the
// faulted (src, dst) pairs.
func fuzzScenario(seed int64) (fault func(*Network), sends []timedSend) {
	r := fuzzRand(seed)
	top := topo.System256()
	nodes := top.Nodes()
	pair := func() (int, int) {
		src := r.intn(nodes)
		dst := (src + 1 + r.intn(nodes-1)) % nodes
		return src, dst
	}
	type faultSpec struct {
		kind      int // 0 cut wire, 1 corruption window, 2 NI stall
		plane     int
		src, dst  int
		hop       int // wire index along the route: 0 is the uplink
		from, til sim.Time
	}
	nf := 1 + r.intn(4)
	specs := make([]faultSpec, nf)
	pairs := make([][2]int, nf)
	for i := range specs {
		src, dst := pair()
		plane := r.intn(2)
		path, err := top.Route(src, dst, plane)
		hops := 0
		if err == nil {
			hops = len(path.Hops)
		}
		from := r.between(0, 400*sim.Microsecond)
		specs[i] = faultSpec{
			kind: r.intn(3), plane: plane, src: src, dst: dst,
			hop:  r.intn(hops + 1),
			from: from, til: from + r.between(sim.Microsecond, 60*sim.Microsecond),
		}
		pairs[i] = [2]int{src, dst}
	}
	fault = func(n *Network) {
		t := n.Topology()
		for _, f := range specs {
			if f.kind == 2 {
				n.NI(f.src).Links[f.plane].Stall(f.from, f.til)
				continue
			}
			path, err := t.Route(f.src, f.dst, f.plane)
			if err != nil {
				continue
			}
			dev, port := f.src, f.plane
			if f.hop > 0 {
				h := path.Hops[f.hop-1]
				dev, port = t.Nodes()+h.Xbar, h.Out
			}
			if f.kind == 0 {
				n.CutWire(dev, port, f.from)
			} else {
				n.CorruptWire(dev, port, f.from, f.til)
			}
		}
	}
	ns := 1 + r.intn(8)
	at := sim.Time(0)
	for i := 0; i < ns; i++ {
		var src, dst int
		if r.intn(10) < 8 {
			p := pairs[r.intn(len(pairs))]
			src, dst = p[0], p[1]
		} else {
			src, dst = pair()
		}
		sends = append(sends, timedSend{at: at, src: src, dst: dst})
		at += r.between(60*sim.Microsecond, 120*sim.Microsecond)
	}
	return fault, sends
}

// FuzzPartitionedMatchesLegacy checks seq ≡ par across fault schedules:
// for a seeded faulted send sequence, the synchronous executor and the
// partitioned one at 1, 2 and 4 shards must agree on every Delivery,
// both planes' counters, the metrics dump and the canonical timeline,
// and every delivered message's decomposition must sum to its latency.
// The checked-in corpus (testdata/fuzz) adds seeds that reach a severed
// wire, a CRC retry, an NI stall with its setup timeout and a plane-down
// cache skip, so plain `go test` replays each of those paths.
func FuzzPartitionedMatchesLegacy(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fault, sends := fuzzScenario(seed)
		want := legacySequence(t, sends, fault)
		for i, d := range want.deliveries {
			if !d.Failed && d.Decomp.Total() != d.Latency() {
				t.Fatalf("seed %d send %d: decomposition %+v sums to %v, latency %v",
					seed, i, d.Decomp, d.Decomp.Total(), d.Latency())
			}
		}
		for _, shards := range []int{1, 2, 4} {
			got := partSequence(t, shards, sends, fault)
			if diff := diffRuns(got, want); diff != "" {
				t.Fatalf("seed %d shards=%d sends %+v: %s", seed, shards, sends, diff)
			}
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
)

// heldOutSeed is the seed kept out of tuning: gain claims made on other
// seeds are confirmed on it, with the seq ≡ par2 and invariant checks only
// (the goldens exist for seed 1 alone).
const heldOutSeed = 7

// runSeconds is how long one benchmark run measures by default.
const runSeconds = 20

// metric describes one reported number. Clock says whether a time is host
// time (what the simulator costs) or simulated time (what the modelled
// machine would take); counts and ratios say "host" when they describe
// the simulator process.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	clock string
	// doc says what is measured; moves says which end-to-end metric and
	// workload a per-layer metric should move, and where it should stay
	// flat.
	doc, moves string
}

// endToEnd are the metrics a user of pmfault, pmtraffic, pmstat and
// pmbench sees, reported per workload with tracing off. Failed passes are
// carried by the result's attempted/failed counts, not by a metric: a
// metric must never read 0.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, clock: "host",
		doc: "median host seconds per pass, sequential engine, at the nominal host speed (refspeed.go)"},
	{name: "wall_par2_s", unit: "s", better: "lower", bound: 0.25, clock: "host",
		doc: "median host seconds per pass, parallel engine with 2 psim shards (campaign rows row-parallel; node-paper figures on 2 workers), at the nominal host speed"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, clock: "host",
		doc: "median host seconds of the workload's public constructors (topology build plus network, world, engine or node assembly, seq and par2), at the nominal host speed"},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15, clock: "host",
		doc: "median host MB allocated per sequential pass"},
	{name: "allocs_k", unit: "k", better: "lower", bound: 0.15, clock: "host",
		doc: "median thousands of host heap allocations per sequential pass"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, clock: "host",
		doc: "median peak resident memory of 3 fresh processes that each run one sequential pass, GC stop-the-world"},
	{name: "paper_err_pct", unit: "%", better: "lower", bound: 0.05, clock: "sim",
		doc: "mean relative error of the simulated Fig 8a/9/11 headline values against the paper's numbers (calibration targets, see paper.go)"},
}

// The moves notes name the end-to-end metric and workload a per-layer
// metric should move; reused phrases are spelled once here.
const (
	movesCampaign = "should move wall_s on campaign-s256; flat on node-paper"
	movesPart     = "should move wall_s and wall_par2_s on traffic-s256 and heat-s256; flat on node-paper"
	movesRounds   = "should move wall_par2_s on heat-s256 and traffic-s256; flat on campaign-s256 and node-paper"
	movesHeat     = "should move wall_s and wall_par2_s on heat-s256; flat on campaign-s256 and node-paper"
	movesObserve  = "should move wall_s and wall_par2_s on traffic-s256; allocations stay 0; flat on node-paper"
	movesNode     = "should move wall_s on node-paper; flat on campaign-s256, traffic-s256 and heat-s256"
)

// perLayer are the per-layer metrics, each timed from this package around
// one public call, reported by a traced run (--trace 1).
var perLayer = []metric{
	{name: "topo.route_us", unit: "us", better: "lower", clock: "host",
		doc:   "Topology.Route per (src, dst, plane) on a fresh System256, seeded sample of the 16,256 pairs x 2 planes",
		moves: "should move wall_s, alloc_mb and setup_s on campaign-s256 and traffic-s256; flat on heat-s256 and node-paper"},
	{name: "topo.route_kb", unit: "KB", better: "lower", clock: "host",
		doc:   "host KB allocated per Topology.Route call",
		moves: "should move alloc_mb on campaign-s256 and traffic-s256; flat on heat-s256 and node-paper"},
	{name: "topo.partition_us", unit: "us", better: "lower", clock: "host",
		doc:   "Topology.Partition(2) on a fresh System256",
		moves: "should move setup_s on heat-s256 and traffic-s256 (par2); flat on campaign-s256 and node-paper"},
	{name: "sim.event_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Scheduler.At + Step per event", moves: movesCampaign},
	{name: "xbar.connect_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Crossbar.Connect on contended outputs", moves: movesCampaign},
	{name: "netsim.send_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Network.Send on pre-routed 3-crossbar System256 paths", moves: movesCampaign},
	{name: "netsim.send_allocs", unit: "count", better: "lower", clock: "host",
		doc: "host heap allocations per Network.Send", moves: movesCampaign},
	{name: "netsim.transport_send_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Transport.Send with a warm route cache", moves: movesCampaign},
	{name: "netsim.failover_send_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Transport.Send with the sender's plane-A uplink cut (plane-B failover)", moves: movesCampaign},
	{name: "netsim.part_send_ns.s1", unit: "ns", better: "lower", clock: "host",
		doc: "PartNetwork.SendAsync + Run per message, 1 shard", moves: movesPart},
	{name: "netsim.part_send_ns.s2", unit: "ns", better: "lower", clock: "host",
		doc: "PartNetwork.SendAsync + Run per message, 2 shards", moves: movesPart},
	{name: "netsim.part_send_allocs", unit: "count", better: "lower", clock: "host",
		doc: "host heap allocations per partitioned send, 1 shard", moves: movesPart},
	{name: "psim.round_ns", unit: "ns", better: "lower", clock: "host",
		doc: "one cross-shard Engine.Post per lookahead window on a 2-shard engine", moves: movesRounds},
	{name: "psim.round_allocs", unit: "count", better: "lower", clock: "host",
		doc: "host heap allocations per barrier round", moves: movesRounds},
	{name: "psim.local_event_ns", unit: "ns", better: "lower", clock: "host",
		doc: "shard-local events, many per window, on a 2-shard engine", moves: movesRounds},
	{name: "mpl.pworld_msg_ns", unit: "ns", better: "lower", clock: "host",
		doc: "two-rank PRank.Send/Recv ping-pong per message on System256", moves: movesHeat},
	{name: "mpl.pworld_msg_allocs", unit: "count", better: "lower", clock: "host",
		doc: "host heap allocations per PWorld message", moves: movesHeat},
	{name: "mpl.world_msg_ns", unit: "ns", better: "lower", clock: "host",
		doc: "two-rank World.Send/Recv ping-pong per message on System256", moves: movesHeat},
	{name: "mpl.allreduce_us", unit: "us", better: "lower", clock: "host",
		doc: "one 128-rank PWorld AllReduce round", moves: movesHeat},
	{name: "heat.pworld_makespan_us", unit: "sim_us", better: "lower", clock: "sim",
		doc:   "exact simulated makespan of heat on System256 (24 cells/rank, 30 steps) over mpl.PWorld",
		moves: "baseline for reconciling the two models; a model change moves it, a simulator-only change must not"},
	{name: "heat.world_makespan_us", unit: "sim_us", better: "lower", clock: "sim",
		doc:   "exact simulated makespan of the same heat config over mpl.World",
		moves: "baseline for reconciling the two models; a model change moves it, a simulator-only change must not"},
	{name: "heat.runpart_ms", unit: "ms", better: "lower", clock: "host",
		doc: "host cost of heat.RunPart for that config, 1 shard", moves: movesHeat},
	{name: "heat.run_ms", unit: "ms", better: "lower", clock: "host",
		doc: "host cost of heat.Run for that config", moves: movesHeat},
	{name: "traffic.new_ms", unit: "ms", better: "lower", clock: "host",
		doc:   "traffic.New of the default mix on a fresh System256",
		moves: "should move setup_s on traffic-s256; flat on heat-s256 and node-paper"},
	{name: "traffic.msg_us", unit: "us", better: "lower", clock: "host",
		doc:   "host cost of Engine.Run per offered message, healthy System256",
		moves: "should move wall_s on traffic-s256; flat on node-paper"},
	{name: "traffic.msg_allocs", unit: "count", better: "lower", clock: "host",
		doc:   "host heap allocations per offered message",
		moves: "should move wall_s and alloc_mb on traffic-s256; flat on node-paper"},
	{name: "traffic.events", unit: "count", better: "lower", clock: "sim",
		doc:   "exact psim steps of that run (PartNetwork().Engine().Steps())",
		moves: "should move wall_s on traffic-s256 when it moves; a simulator-only change that keeps it must keep every output"},
	{name: "metrics.observe_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Histogram.Observe", moves: movesObserve},
	{name: "metrics.merge_us", unit: "us", better: "lower", clock: "host",
		doc: "Registry.MergeFrom of a traffic-sized registry into a fresh one", moves: movesObserve},
	{name: "telemetry.observe_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Sampler Series.Inc / TimeHist.ObserveTime per call", moves: movesObserve},
	{name: "node.access_ns.l1", unit: "ns", better: "lower", clock: "host",
		doc: "Proc.Access inside L1, PowerMANNA node", moves: movesNode},
	{name: "node.access_ns.mem", unit: "ns", better: "lower", clock: "host",
		doc: "Proc.Access strided past L2, PowerMANNA node", moves: movesNode},
	{name: "cache.access_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Cache.Access on a warm L1D", moves: movesNode},
	{name: "bus.fill_ns", unit: "ns", better: "lower", clock: "host",
		doc: "SwitchedFabric.FillLine from memory", moves: movesNode},
	{name: "dispatch.txn_ns", unit: "ns", better: "lower", clock: "host",
		doc: "Dispatcher.Submit + RunUntilIdle per transaction", moves: movesNode},
	{name: "matmult.msim_iters_per_s", unit: "M/s", better: "higher", clock: "host",
		doc: "millions of simulated naive MatMult inner iterations (N^3) per host second, N=65, 1 CPU", moves: movesNode},
	{name: "hint.ksplits_per_s", unit: "k/s", better: "higher", clock: "host",
		doc: "thousands of simulated HINT DOUBLE interval splits per host second", moves: movesNode},
	{name: "trace_overhead_pct", unit: "%", better: "lower", clock: "host",
		doc:   "traced minus untraced median sequential pass time, as a share of untraced",
		moves: "the cost of the benchmark's own spans; should stay near 0 on every workload"},
}

// benchmarkFile renders BENCHMARK.json from the tables above, so the
// checked-in file and the program cannot disagree (spec_test.go checks).
func benchmarkFile() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

package main

import (
	"fmt"
	"strings"
	"sync"

	"powermanna/internal/experiments"
	"powermanna/internal/fault"
	"powermanna/internal/machine"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/node"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

// section is one rendered document of a pass. At seed 1 a section with a
// golden must equal that checked-in file byte for byte.
type section struct {
	name, golden string
	text         []byte
}

// workload is one named input set. A pass runs it once on the sequential
// engine (par false) or on the parallel engine with 2 psim shards (par
// true); both must render the same bytes.
type workload struct {
	name, why string
	// setup calls the workload's public constructors, seq and par2, and
	// nothing else; it is what setup_s times.
	setup func(seed int64) error
	// pass runs the workload, checks the invariants readable from its
	// public results, and returns the rendered output.
	pass func(seed int64, par bool, tr *tracer) ([]section, error)
}

var workloads = []*workload{
	{
		name:  "campaign-s256",
		why:   "link-cut and central-cut fault campaigns on System256: the synchronous send path, where topo.Route dominates; psim, mpl and traffic stay idle",
		setup: campaignSetup,
		pass:  campaignPass,
	},
	{
		name:  "traffic-s256",
		why:   "open-loop multi-tenant traffic ladder plus the pmstat fault scenario on System256: the split-phase datapath with many distinct routes, and the only telemetry user",
		setup: trafficSetup,
		pass:  trafficPass,
	},
	{
		name:  "heat-s256",
		why:   "closed-loop heat-linkcut SPMD solver on System256: few distinct routes, many small messages, rank handoffs and psim barrier rounds",
		setup: heatSetup,
		pass:  heatPass,
	},
	{
		name:  "node-paper",
		why:   "the paper's node and link figures (HINT, dual-CPU MatMult, Figs 9, 11, 12): the no-change control for interconnect changes, and the fidelity check",
		setup: nodeSetup,
		pass:  nodePass,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// engineOptions maps the pass kind onto the fault campaign options the
// pmfault CLI would build from its default flags.
func engineOptions(seed int64, t *topo.Topology, par bool) fault.Options {
	opt := fault.Options{
		Seed:         seed,
		Topology:     t,
		Messages:     fault.DefaultMessages,
		PayloadBytes: fault.DefaultPayloadBytes,
		Window:       fault.DefaultWindow,
	}
	if par {
		opt.Engine, opt.Shards = psim.Par, 2
	}
	return opt
}

func campaignSetup(int64) error {
	netsim.New(topo.System256())
	return nil
}

// campaignPass is `pmfault --campaign link-cut --topo system256` followed
// by `pmfault --campaign central-cut`, each paying its own topology.
func campaignPass(seed int64, par bool, tr *tracer) ([]section, error) {
	var out []section
	for _, name := range []string{"link-cut", "central-cut"} {
		c, ok := fault.CampaignByName(name)
		if !ok {
			return nil, fmt.Errorf("no campaign %q", name)
		}
		end := tr.begin("topo.System256")
		t := topo.System256()
		end()
		end = tr.begin("fault.Run " + name)
		res, err := fault.Run(c, engineOptions(seed, t, par))
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, r := range res.Rows {
			if r.Delivered+r.Failed != res.Options.Messages {
				return nil, fmt.Errorf("%s: %d faults: delivered %d + failed %d != %d messages", name, r.Faults, r.Delivered, r.Failed, res.Options.Messages)
			}
			if !c.BothPlanes && r.Failed != 0 {
				return nil, fmt.Errorf("%s: %d faults: %d messages lost with a healthy plane B", name, r.Faults, r.Failed)
			}
		}
		end = tr.begin("Result.Render")
		text := res.Render()
		end()
		golden := ""
		if name == "central-cut" {
			golden = "testdata/pmfault_central-cut_seed1.golden"
		}
		out = append(out, section{name, golden, []byte(text)})
	}
	return out, nil
}

func trafficOptions(seed int64, t *topo.Topology, par bool) traffic.Options {
	opt := traffic.Options{Seed: seed, Topology: t, Horizon: traffic.DefaultHorizon, Telemetry: true}
	if par {
		opt.Engine, opt.Shards = psim.Par, 2
	}
	return opt
}

func trafficSetup(seed int64) error {
	t := topo.System256()
	for _, par := range []bool{false, true} {
		if _, err := traffic.New(traffic.DefaultMix(), trafficOptions(seed, t, par)); err != nil {
			return err
		}
	}
	return nil
}

// conserved checks offered = delivered + failed for every tenant.
func conserved(r *traffic.Result) error {
	for _, ts := range r.Tenants {
		if ts.Offered != ts.Delivered+ts.Failed {
			return fmt.Errorf("tenant %s: offered %d != delivered %d + failed %d", ts.Name, ts.Offered, ts.Delivered, ts.Failed)
		}
	}
	return nil
}

// trafficPass is `pmfault --traffic --topo system256` followed by
// `pmstat --campaign link-cut --faults 8 --topo system256`.
func trafficPass(seed int64, par bool, tr *tracer) ([]section, error) {
	mix := traffic.DefaultMix()
	end := tr.begin("topo.System256")
	t := topo.System256()
	end()
	end = tr.begin("fault.RunTraffic")
	res, err := fault.RunTraffic(mix, 0, engineOptions(seed, t, par))
	end()
	if err != nil {
		return nil, err
	}
	for _, r := range res.Results {
		if err := conserved(r); err != nil {
			return nil, err
		}
	}
	end = tr.begin("TrafficResult.Render")
	ladder := res.Render()
	end()

	const faults = 8
	end = tr.begin("topo.System256")
	t = topo.System256()
	end()
	end = tr.begin("traffic.New")
	eng, err := traffic.New(mix, trafficOptions(seed, t, par))
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("fault.ApplyTrafficScenario")
	events := fault.ApplyTrafficScenario(eng.Network(), t, faults, traffic.DefaultHorizon, seed)
	end()
	end = tr.begin("traffic.Engine.Run")
	r, err := eng.Run()
	end()
	if err != nil {
		return nil, err
	}
	if err := conserved(r); err != nil {
		return nil, err
	}
	end = tr.begin("pmstat render")
	var b strings.Builder
	fmt.Fprintf(&b, "### pmstat %s — %s\n", r.Mix.Name, r.Mix.Description)
	fmt.Fprintf(&b, "topology %s, seed %d, horizon %dus, window %dus, %d tenants\n",
		t.Name(), seed, int64(r.Horizon/sim.Microsecond), int64(r.Window/sim.Microsecond), len(r.Mix.Tenants))
	fmt.Fprintf(&b, "\nfault scenario link-cut at %d faults:\n", faults)
	if len(events) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, e := range events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	b.WriteByte('\n')
	b.WriteString(r.BurnTable().Render())
	b.WriteByte('\n')
	b.WriteString(r.DecompTable().Render())
	end()
	return []section{
		{"traffic", "testdata/pmfault_traffic_system256_seed1.golden", []byte(ladder)},
		{"pmstat", "testdata/pmstat_default_system256_seed1.golden", []byte(b.String())},
	}, nil
}

func heatSetup(int64) error {
	t := topo.System256()
	for _, shards := range []int{1, 2} {
		if _, err := mpl.NewPWorld(t, shards); err != nil {
			return err
		}
	}
	return nil
}

// heatPass is `pmfault --campaign heat-linkcut --topo system256`.
func heatPass(seed int64, par bool, tr *tracer) ([]section, error) {
	c, ok := fault.AppCampaignByName("heat-linkcut")
	if !ok {
		return nil, fmt.Errorf("no app campaign heat-linkcut")
	}
	end := tr.begin("topo.System256")
	t := topo.System256()
	end()
	end = tr.begin("fault.RunApp heat-linkcut")
	res, err := fault.RunApp(c, engineOptions(seed, t, par))
	end()
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != len(c.Rates) {
		return nil, fmt.Errorf("heat-linkcut: %d rows, want %d", len(res.Rows), len(c.Rates))
	}
	// Faults may shorten the makespan (failover can dodge plane-A
	// contention), so only the baseline row's inflation is fixed.
	for i, r := range res.Rows {
		if r.Makespan <= 0 || (i == 0 && r.Inflation != 1) {
			return nil, fmt.Errorf("heat-linkcut: %d faults: makespan %v, inflation %.3f", r.Faults, r.Makespan, r.Inflation)
		}
	}
	end = tr.begin("AppResult.Render")
	text := res.Render()
	end()
	return []section{{"heat-linkcut", "testdata/pmfault_heat-linkcut_system256_seed1.golden", []byte(text)}}, nil
}

// nodeFigures are `pmbench -exp fig6a,fig8a,fig9,fig11,fig12`.
var nodeFigures = []string{"fig6a", "fig8a", "fig9", "fig11", "fig12"}

func nodeSetup(int64) error {
	for _, cfg := range machine.All() {
		node.New(cfg)
	}
	return nil
}

// nodePass runs the node-paper figures, in order (seq) or spread over two
// workers (par). Their output does not depend on the seed: these runners
// draw no random traffic.
func nodePass(seed int64, par bool, tr *tracer) ([]section, error) {
	out := make([]section, len(nodeFigures))
	runOne := func(i int) error {
		run, ok := experiments.ByID(nodeFigures[i])
		if !ok {
			return fmt.Errorf("no experiment %q", nodeFigures[i])
		}
		end := tr.begin("experiments." + nodeFigures[i])
		r := run(experiments.Options{Quick: true, Seed: seed})
		end()
		end = tr.begin("Result.Render")
		text := r.Render()
		end()
		if strings.Contains(text, "MISMATCH") {
			return fmt.Errorf("%s: simulated result contradicts the paper", nodeFigures[i])
		}
		out[i] = section{nodeFigures[i], "", []byte(text)}
		return nil
	}
	if !par {
		for i := range nodeFigures {
			if err := runOne(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// par: two workers take the figures in order; results land by index.
	next := make(chan int)
	errs := make([]error, len(nodeFigures))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = runOne(i)
			}
		}()
	}
	for i := range nodeFigures {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

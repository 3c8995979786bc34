// Command pmfault runs deterministic fault-injection campaigns against
// the duplicated interconnect and prints a degradation table: delivered,
// retried (plane-B failover) and failed message counts plus latency
// inflation, per injected fault count. It is how this reproduction
// answers "what does the machine do when a link dies?" — the question
// the paper's duplicated communication system (Section 4) exists for.
//
// Besides the synthetic-traffic campaigns it runs application campaigns
// (heat-linkcut, allreduce-linkcut): a real workload SPMD-style over the
// node-partitioned message-passing layer while plane-A uplinks die,
// reporting makespan inflation. Under --engine par --shards N the
// workload itself runs partitioned across N psim shards; output stays
// byte-identical to --engine seq at every aligned shard count.
//
// Usage:
//
//	pmfault --campaign link-cut --seed 1
//	pmfault --campaign heat-linkcut --seed 1
//	pmfault --campaign heat-linkcut --topo system256 --engine par --shards 4
//	pmfault --campaign mixed --topo system256 --messages 800
//	pmfault --campaign link-cut --metrics
//	pmfault --campaign link-cut --engine par
//	pmfault --traffic --topo system256 --engine par --shards 4
//	pmfault --list
//
// --traffic swaps the campaign for the open-loop multi-tenant traffic
// sweep (internal/traffic): the named mix (--mix, default "default")
// offers seeded arrival-process load from every node while plane-A
// links die, and the table reports each tenant's delivered-latency
// p50/p99/p999 against its SLO per fault count. --window-us, when set,
// becomes the offered-load horizon.
//
// --metrics appends the highest-rate row's deterministic metrics dump
// (internal/metrics): send outcome counters, latency and detection
// histograms, receive waits, crossbar arbitration waits, and for EARTH
// workloads the runtime's token instruments.
//
// --engine selects the event engine: seq runs every degradation row on
// the sequential scheduler, par gives each row its own shard of the
// internal/psim parallel engine. The two are byte-identical by
// construction — main_test.go runs the goldens under both.
//
// stdout is a pure function of the flags: two runs with identical flags
// are byte-identical. main_test.go pins every pmfault golden in
// testdata/ (tables and --metrics dumps) against its command line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"powermanna/internal/fault"
	"powermanna/internal/metrics"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printMetrics appends the registry dump to the campaign output;
// a nil registry (no --metrics) prints nothing.
func printMetrics(w io.Writer, reg *metrics.Registry) {
	if reg != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, reg.Render())
	}
}

// run parses args, runs the selected campaign or sweep and writes its
// report to stdout. It returns the process exit code: 0 on success, 1
// on a bad value or a failed run (with the reason on stderr), 2 on a
// malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmfault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		campaignFlag = fs.String("campaign", "link-cut", "campaign name (see --list)")
		seed         = fs.Int64("seed", fault.DefaultSeed, "seed for fault schedule and traffic")
		topoFlag     = fs.String("topo", "cluster8", "topology: cluster8 or system256")
		messages     = fs.Int("messages", fault.DefaultMessages, "messages per degradation row")
		payload      = fs.Int("payload", fault.DefaultPayloadBytes, "payload bytes per message")
		windowUS     = fs.Int64("window-us", int64(fault.DefaultWindow/sim.Microsecond), "simulated span in microseconds traffic spreads over")
		metricsFlag  = fs.Bool("metrics", false, "append the highest-rate row's metrics dump (latency/detection histograms, send outcomes, arb waits)")
		engineFlag   = fs.String("engine", "seq", "event engine: seq (sequential) or par (one psim shard per degradation row; byte-identical output)")
		shardsFlag   = fs.Int("shards", 0, "psim shard count for partitioned app workloads under --engine par (0 = 1; must align with the topology's leaf groups)")
		trafficFlag  = fs.Bool("traffic", false, "run the open-loop multi-tenant traffic sweep instead of a campaign (per-tenant SLO percentiles per fault count)")
		mixFlag      = fs.String("mix", "default", "tenant mix for --traffic (see pmtraffic --list)")
		listOnly     = fs.Bool("list", false, "list campaign names and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pmfault: %v\n", err)
		return 1
	}

	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		return fail(err)
	}

	if *listOnly {
		for _, c := range fault.Campaigns() {
			fmt.Fprintf(stdout, "%-18s  %s\n", c.Name, c.Description)
		}
		for _, c := range fault.AppCampaigns() {
			fmt.Fprintf(stdout, "%-18s  %s\n", c.Name, c.Description)
		}
		return 0
	}

	// An unset --topo stays nil so a campaign's own default topology can
	// apply (central-cut needs System256's central stage); an explicit
	// flag always wins. An explicit --window-us, under --traffic, is the
	// offered-load horizon.
	topoSet, windowSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "topo":
			topoSet = true
		case "window-us":
			windowSet = true
		}
	})
	var t *topo.Topology
	if topoSet {
		var err error
		if t, err = topo.ByName(*topoFlag); err != nil {
			return fail(err)
		}
	}
	opt := fault.Options{
		Seed:         *seed,
		Topology:     t,
		Messages:     *messages,
		PayloadBytes: *payload,
		Window:       sim.Time(*windowUS) * sim.Microsecond,
		Engine:       engine,
		Shards:       *shardsFlag,
	}
	var reg *metrics.Registry
	if *metricsFlag {
		reg = metrics.NewRegistry()
		opt.Metrics = reg
	}

	var report interface{ Render() string }
	if *trafficFlag {
		mix, err := traffic.MixByName(*mixFlag)
		if err != nil {
			return fail(err)
		}
		// Otherwise the traffic engine's default horizon applies.
		var horizon sim.Time
		if windowSet {
			horizon = opt.Window
		}
		report, err = fault.RunTraffic(mix, horizon, opt)
		if err != nil {
			return fail(err)
		}
	} else if c, ok := fault.CampaignByName(*campaignFlag); ok {
		report, err = fault.Run(c, opt)
		if err != nil {
			return fail(err)
		}
	} else if c, ok := fault.AppCampaignByName(*campaignFlag); ok {
		report, err = fault.RunApp(c, opt)
		if err != nil {
			return fail(err)
		}
	} else {
		return fail(fmt.Errorf("unknown campaign %q (try --list)", *campaignFlag))
	}
	fmt.Fprint(stdout, report.Render())
	printMetrics(stdout, reg)
	return 0
}

// Command pmtraffic runs the open-loop multi-tenant traffic engine
// (internal/traffic) once, on a healthy machine, and prints the
// per-tenant service report: offered versus delivered traffic,
// delivered-latency p50/p99/p999 and each tenant's SLO verdict with the
// exact violation count. It is the multi-tenant counterpart to pmearth
// and pmheat — not "how fast does one program run" but "what service do
// concurrent workloads get from the shared fabric".
//
// Usage:
//
//	pmtraffic --mix default --seed 1
//	pmtraffic --mix bursty --topo system256 --horizon-us 400
//	pmtraffic --topo system256 --engine par --shards 4
//	pmtraffic --mix default --metrics
//	pmtraffic --list
//
// --engine selects sequential or parallel execution of the partitioned
// datapath; stdout is byte-identical across engines and aligned shard
// counts, and a pure function of the flags. For the same mix under a
// fault sweep, use pmfault --traffic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"powermanna/internal/metrics"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the mix once and writes the service report to
// stdout. It returns the process exit code: 0 on success, 1 on a bad
// value or a failed run (with the reason on stderr), 2 on a malformed
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmtraffic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mixFlag     = fs.String("mix", "default", "tenant mix (see --list)")
		topoFlag    = fs.String("topo", "cluster8", "topology: cluster8 or system256")
		seed        = fs.Int64("seed", 1, "seed for every arrival process")
		horizonUS   = fs.Int64("horizon-us", int64(traffic.DefaultHorizon/sim.Microsecond), "offered-load window in microseconds")
		engineFlag  = fs.String("engine", "seq", "event engine: seq (one shard) or par (sharded; byte-identical output)")
		shardsFlag  = fs.Int("shards", 0, "psim shard count under --engine par (0 = 1; must align with the topology's leaf groups)")
		metricsFlag = fs.Bool("metrics", false, "append the run's full metrics dump")
		listOnly    = fs.Bool("list", false, "list mix names and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pmtraffic: %v\n", err)
		return 1
	}

	if *listOnly {
		for _, m := range traffic.Mixes() {
			fmt.Fprintf(stdout, "%-10s  %s\n", m.Name, m.Description)
		}
		return 0
	}

	mix, err := traffic.MixByName(*mixFlag)
	if err != nil {
		return fail(err)
	}
	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		return fail(err)
	}
	t, err := topo.ByName(*topoFlag)
	if err != nil {
		return fail(err)
	}

	var reg *metrics.Registry
	if *metricsFlag {
		reg = metrics.NewRegistry()
	}
	eng, err := traffic.New(mix, traffic.Options{
		Seed:     *seed,
		Topology: t,
		Horizon:  sim.Time(*horizonUS) * sim.Microsecond,
		Engine:   engine,
		Shards:   *shardsFlag,
		Metrics:  reg,
	})
	if err != nil {
		return fail(err)
	}
	res, err := eng.Run()
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, res.Render())
	if reg != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, reg.Render())
	}
	return 0
}

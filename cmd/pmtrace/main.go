// Command pmtrace runs a seeded workload on the simulator with the
// event recorder attached and exports the resulting timeline, either as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto) or as
// a plain-text top-N span profile. It is the observability front end of
// internal/trace: every span it emits is placed on the simulated clock,
// so two runs with identical flags are byte-identical.
//
// Workloads (--run):
//
//	pingpong   seeded message ping-pong over the MPL on the duplicated
//	           interconnect, with the bursty OS stream contending on
//	           plane B
//	fib        the EARTH split-phase fib benchmark (fibers, SU service,
//	           tokens over both planes)
//	dispatch   the MPC620 split-transaction bus dispatcher under a
//	           seeded two-master load
//
// Alternatively --campaign runs a fault-injection campaign from
// internal/fault at its highest fault rate with tracing attached, so
// the timeline shows failover attempts, plane-down cache hits and
// stuck-output spans next to the traffic that felt them.
//
// Beyond export, pmtrace analyzes the recording in place (--format
// utilization, critpath) and compares two seeded runs (--format diff
// reruns the same workload under --seed2 and aligns the timelines):
// per-track busy-fraction series, the longest dependency chain bounding
// the makespan, and the shifted/added/removed events plus utilization
// deltas between the runs.
//
// Usage:
//
//	pmtrace --run pingpong --seed 1 > trace.json
//	pmtrace --run fib --format profile
//	pmtrace --run pingpong --format utilization --window-us 20
//	pmtrace --run pingpong --format critpath
//	pmtrace --run pingpong --format diff --seed 1 --seed2 2
//	pmtrace --campaign link-cut --seed 1 --messages 60 > fault.json
//	pmtrace --campaign central-cut --format profile
//	pmtrace --campaign heat-linkcut --format diff
//	pmtrace --campaign link-cut --engine par --seed 1
//
// --engine selects the event engine for --campaign runs (seq or par,
// one psim shard per degradation row); the recorded timeline is
// byte-identical either way, which main_test.go checks against the
// goldens.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"powermanna/internal/dispatch"
	"powermanna/internal/earth"
	"powermanna/internal/fault"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// fibN is the fib argument for --run fib: big enough to spread fibers
// over every Cluster8 node, small enough to keep traces reviewable.
const fibN = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, records the workload or campaign and writes the
// chosen format to stdout. It returns the process exit code: 0 on
// success, 1 on a bad value or a failed run (with the reason on
// stderr), 2 on a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag      = fs.String("run", "pingpong", "workload: pingpong, fib or dispatch")
		campaignFlag = fs.String("campaign", "", "trace a fault campaign's highest rate instead of --run (see pmfault --list)")
		formatFlag   = fs.String("format", "chrome", "output format: chrome, profile, utilization, critpath or diff")
		seed         = fs.Int64("seed", 1, "seed for workload schedule and fault placement")
		seed2        = fs.Int64("seed2", 2, "second seed for --format diff (the B run)")
		topoFlag     = fs.String("topo", "", "topology: cluster8 or system256 (default per workload)")
		messages     = fs.Int("messages", 0, "messages per campaign row or ping-pong rounds (0 = default)")
		topN         = fs.Int("top", trace.DefaultProfileTopN, "span names per track in --format profile")
		windowUS     = fs.Int64("window-us", 0, "utilization window in microseconds (0 = horizon/16)")
		engineFlag   = fs.String("engine", "seq", "event engine for --campaign runs: seq or par (byte-identical timelines)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pmtrace: %v\n", err)
		return 1
	}

	// An empty --topo means the workload default: t stays nil so
	// campaigns with their own default topology keep it.
	var t *topo.Topology
	if *topoFlag != "" {
		var err error
		if t, err = topo.ByName(*topoFlag); err != nil {
			return fail(err)
		}
	}
	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		return fail(err)
	}

	record := func(rec *trace.Recorder, seed int64) error {
		if *campaignFlag != "" {
			return runCampaign(rec, *campaignFlag, seed, t, *messages, engine)
		}
		return runWorkload(rec, *runFlag, seed, t, *messages)
	}

	rec := trace.NewRecorder()
	if err := record(rec, *seed); err != nil {
		return fail(err)
	}

	out := bufio.NewWriter(stdout)
	switch *formatFlag {
	case "chrome":
		err = trace.WriteChrome(out, rec)
	case "profile":
		err = trace.WriteProfile(out, rec, *topN)
	case "utilization":
		err = trace.WriteUtilization(out, rec, sim.Time(*windowUS)*sim.Microsecond)
	case "critpath":
		err = trace.WriteCritPath(out, rec)
	case "diff":
		rec2 := trace.NewRecorder()
		if err := record(rec2, *seed2); err != nil {
			return fail(err)
		}
		err = trace.WriteDiff(out, rec, rec2)
	default:
		return fail(fmt.Errorf("unknown format %q", *formatFlag))
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runWorkload records one seeded workload into rec.
func runWorkload(rec *trace.Recorder, name string, seed int64, t *topo.Topology, messages int) error {
	if t == nil {
		t = topo.Cluster8()
	}
	switch name {
	case "pingpong":
		return runPingPong(rec, seed, t, messages)
	case "fib":
		return runFib(rec, seed, t)
	case "dispatch":
		return runDispatch(rec, seed)
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
}

// runPingPong bounces seeded messages between random rank pairs over
// the duplicated interconnect while the bursty OS stream contends on
// plane B, so the trace shows wormhole spans interleaving with OS
// traffic on shared wires.
func runPingPong(rec *trace.Recorder, seed int64, t *topo.Topology, rounds int) error {
	if rounds <= 0 {
		rounds = 12
	}
	w := mpl.NewWorldWith(t, netsim.DefaultFailover())
	w.Network().SetRecorder(rec)
	w.Network().AttachOSStream(netsim.BurstyOSStream(seed))
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 256)
	for i := 0; i < rounds; i++ {
		a := rng.Intn(w.Ranks())
		b := rng.Intn(w.Ranks() - 1)
		if b >= a {
			b++
		}
		if err := w.Send(a, b, i, payload); err != nil {
			return err
		}
		if _, err := w.Recv(b, a, i); err != nil {
			return err
		}
		if err := w.Send(b, a, i, payload); err != nil {
			return err
		}
		if _, err := w.Recv(a, b, i); err != nil {
			return err
		}
		w.Compute(a, 2*sim.Microsecond)
	}
	return nil
}

// runFib records the EARTH fib benchmark: EU fiber spans, SU service
// spans and split-phase tokens crossing the planes.
func runFib(rec *trace.Recorder, seed int64, t *topo.Topology) error {
	s := earth.NewWithFailover(t, earth.DefaultParams(), netsim.DefaultFailover())
	s.SetRecorder(rec)
	s.Network().AttachOSStream(netsim.BurstyOSStream(seed))
	got, _, err := earth.RunFib(s, fibN)
	if err != nil {
		return err
	}
	if want := earth.FibReference(fibN); got != want {
		return fmt.Errorf("fib(%d) = %d, want %d", fibN, got, want)
	}
	return nil
}

// runDispatch drives the MPC620 bus dispatcher with a seeded two-master
// transaction mix and traces address and data tenures on the 60 MHz bus
// clock.
func runDispatch(rec *trace.Recorder, seed int64) error {
	cfg := dispatch.DefaultConfig()
	d := dispatch.New(cfg, nil)
	d.Trace(rec, sim.ClockMHz(60).Period)
	rng := rand.New(rand.NewSource(seed))
	kinds := []dispatch.Kind{dispatch.Read, dispatch.ReadExcl, dispatch.Upgrade, dispatch.Writeback}
	for i := 0; i < 24; i++ {
		d.Submit(rng.Intn(cfg.Masters), kinds[rng.Intn(len(kinds))], uint64(rng.Intn(64))<<6)
		for s := rng.Intn(4); s > 0; s-- {
			d.Step()
		}
	}
	if _, ok := d.RunUntilIdle(100_000); !ok {
		return fmt.Errorf("dispatcher did not drain within 100k cycles")
	}
	return nil
}

// runCampaign runs a fault campaign with tracing attached; the fault
// engine records only the highest-rate row, so the timeline is the
// worst-case machine state the degradation table summarises.
func runCampaign(rec *trace.Recorder, name string, seed int64, t *topo.Topology, messages int, engine psim.Kind) error {
	opt := fault.Options{Seed: seed, Topology: t, Trace: rec, Engine: engine}
	if messages > 0 {
		opt.Messages = messages
	}
	if c, ok := fault.CampaignByName(name); ok {
		_, err := fault.Run(c, opt)
		return err
	}
	if c, ok := fault.AppCampaignByName(name); ok {
		_, err := fault.RunApp(c, opt)
		return err
	}
	return fmt.Errorf("unknown campaign %q (try pmfault --list)", name)
}

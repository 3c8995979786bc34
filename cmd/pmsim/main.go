// Command pmsim runs a single workload on a single simulated machine —
// the unit of the bigger figure sweeps, handy for poking at one
// configuration.
//
// Usage:
//
//	pmsim -machine pm -bench matmult -n 201 -version transposed -cpus 2
//	pmsim -machine sun -bench hint -type int -intervals 100000
//	pmsim -machine pm -bench comm -n 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"powermanna"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and writes its report to stdout.
// It returns the process exit code: 0 on success, 1 on a bad value
// (with the reason on stderr), 2 on a malformed command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machineFlag = fs.String("machine", "pm", "pm, sun, pc180 or pc266")
		benchFlag   = fs.String("bench", "matmult", "matmult, hint or comm")
		n           = fs.Int("n", 201, "matrix size (matmult) or message bytes (comm)")
		versionFlag = fs.String("version", "transposed", "matmult version: naive or transposed")
		cpus        = fs.Int("cpus", 1, "processors to use (matmult)")
		typeFlag    = fs.String("type", "double", "hint data type: double or int")
		intervals   = fs.Int("intervals", 100000, "hint interval budget")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pmsim: "+format+"\n", a...)
		return 1
	}

	cfg, ok := powermanna.MachineByName(*machineFlag)
	if !ok {
		return fail("unknown machine %q", *machineFlag)
	}

	switch *benchFlag {
	case "matmult":
		var v powermanna.MatMultVersion
		switch *versionFlag {
		case "naive":
			v = powermanna.Naive
		case "transposed":
			v = powermanna.Transposed
		default:
			return fail("unknown matmult version %q (want naive or transposed)", *versionFlag)
		}
		if *n < 1 {
			return fail("matrix size %d must be positive", *n)
		}
		nd := powermanna.NewNode(cfg)
		if installed := len(nd.Procs()); *cpus < 1 || *cpus > installed {
			return fail("cpus = %d, want 1..%d on %s", *cpus, installed, *machineFlag)
		}
		fmt.Fprintln(stdout, powermanna.RunMatMult(nd, *n, v, *cpus))

	case "hint":
		var dt powermanna.HintDataType
		switch *typeFlag {
		case "double":
			dt = powermanna.HintDouble
		case "int":
			dt = powermanna.HintInt
		default:
			return fail("unknown hint data type %q (want double or int)", *typeFlag)
		}
		if *intervals < 1 {
			return fail("interval budget %d must be positive", *intervals)
		}
		nd := powermanna.NewNode(cfg)
		r := powermanna.RunHINT(nd, dt, *intervals)
		fmt.Fprintln(stdout, r)
		for _, p := range r.Points {
			fmt.Fprintf(stdout, "  t=%-12v intervals=%-8d quality=%-12.4g QUIPS=%.4g\n",
				p.Time, p.Intervals, p.Quality, p.QUIPS)
		}

	case "comm":
		if *machineFlag != "pm" && *machineFlag != "powermanna" {
			return fail("comm benchmark measures the PowerMANNA pair; use -machine pm")
		}
		if *n < 1 {
			return fail("message size %d must be positive", *n)
		}
		pm := powermanna.NewPowerMANNAComm()
		fmt.Fprintf(stdout, "%s message size %d bytes:\n", pm.Name(), *n)
		fmt.Fprintf(stdout, "  one-way latency: %v\n", pm.OneWayLatency(*n))
		fmt.Fprintf(stdout, "  gap at saturation: %v\n", pm.Gap(*n))
		fmt.Fprintf(stdout, "  unidirectional: %.1f MB/s\n", pm.UniBandwidth(*n)/1e6)
		fmt.Fprintf(stdout, "  bidirectional (total): %.1f MB/s\n", pm.BiBandwidth(*n)/1e6)

	default:
		return fail("unknown benchmark %q", *benchFlag)
	}
	return 0
}

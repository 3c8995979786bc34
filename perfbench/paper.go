package main

import (
	"fmt"
	"math"

	"powermanna/internal/experiments"
)

// paperRef is one headline number the paper states, and where the
// simulator's matching value is read.
type paperRef struct {
	fig, series string
	// x selects the point of the series; 0 means its last point (the
	// largest N the quick sweep runs).
	x    float64
	want float64
	cite string
}

// paperRefs are the paper's stated headline values. They are the
// calibration targets the model was tuned to (DESIGN.md §5), not held-out
// data, so paper_err_pct measures drift from the calibration, not
// predictive accuracy. The System256 workloads have no reference at all:
// the paper measured only the 8-node prototype, so they are unvalidated.
var paperRefs = []paperRef{
	{"fig8a", "PowerMANNA", 0, 2.0, "Fig. 8a, Sec. 5.1: naive MatMult, PowerMANNA speedup on 2 CPUs exactly doubles"},
	{"fig8a", "PC-PII-180", 0, 1.7, "Fig. 8a, Sec. 5.1: the 180 MHz dual-Pentium PC loses 15-20% (speedup ~1.7)"},
	{"fig9", "PowerMANNA", 8, 2.75, "Fig. 9, Sec. 5.2: 8-byte one-way latency 2.75 us"},
	{"fig9", "BIP", 8, 6.4, "Fig. 9, Sec. 5.2: BIP on Myrinet, 8 bytes in 6.4 us"},
	{"fig9", "FM", 8, 9.2, "Fig. 9, Sec. 5.2: FM on Myrinet, 8 bytes in 9.2 us"},
	{"fig11", "PowerMANNA", 256 << 10, 60, "Fig. 11, Sec. 5.2: PowerMANNA saturates at its 60 MB/s link"},
	{"fig11", "BIP", 256 << 10, 126, "Fig. 11, Sec. 5.2: BIP reaches ~126 MB/s"},
}

// paperFigures are the experiment runners paperRefs reads.
var paperFigures = []string{"fig8a", "fig9", "fig11"}

// runFigures runs the named quick experiment runners.
func runFigures(ids []string, seed int64) (map[string]experiments.Result, error) {
	out := map[string]experiments.Result{}
	for _, id := range ids {
		run, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		out[id] = run(experiments.Options{Quick: true, Seed: seed})
	}
	return out, nil
}

// paperErrPct is the mean |relative error| in percent of the simulated
// headline values against paperRefs.
func paperErrPct(results map[string]experiments.Result) (float64, error) {
	sum := 0.0
	for _, ref := range paperRefs {
		got, err := headline(results[ref.fig], ref)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(got-ref.want) / ref.want
	}
	return 100 * sum / float64(len(paperRefs)), nil
}

// headline reads the simulated value ref points at.
func headline(r experiments.Result, ref paperRef) (float64, error) {
	if r.Figure == nil {
		return 0, fmt.Errorf("%s: no figure", ref.fig)
	}
	for _, s := range r.Figure.Series {
		if s.Name != ref.series || len(s.Points) == 0 {
			continue
		}
		if ref.x == 0 {
			return s.Points[len(s.Points)-1].Y, nil
		}
		for _, p := range s.Points {
			if p.X == ref.x {
				return p.Y, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no point %s at x=%g", ref.fig, ref.series, ref.x)
}

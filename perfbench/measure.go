package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tally counts attempted and failed correctness checks.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// checker verifies every pass of one workload at one seed: the first
// sequential pass is the reference (and must equal the goldens at seed 1),
// and every later pass, sequential or par2, must render the same bytes.
type checker struct {
	w    *workload
	seed int64
	ref  []section
	log  io.Writer
	tally
}

// run executes one pass, checks it and reports its host duration.
func (c *checker) run(par bool, tr *tracer) (time.Duration, bool) {
	c.attempted++
	tr.startPass()
	end := tr.begin("pass " + c.w.name)
	start := time.Now()
	out, err := c.w.pass(c.seed, par, tr)
	d := time.Since(start)
	end()
	if err == nil {
		err = c.compare(out)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s seed %d (par2=%v): %v\n", c.w.name, c.seed, par, err)
		return d, false
	}
	return d, true
}

// compare checks a pass's output. The first output becomes the reference;
// at seed 1 a section that differs from its golden fails, and the golden
// replaces it as the reference for the passes that follow.
func (c *checker) compare(out []section) error {
	if c.ref == nil {
		c.ref = out
		if c.seed != 1 {
			return nil
		}
		var err error
		for i, s := range out {
			if s.golden == "" {
				continue
			}
			want, rerr := os.ReadFile(s.golden)
			if rerr != nil {
				return fmt.Errorf("golden for %s: %w", s.name, rerr)
			}
			if !bytes.Equal(want, s.text) {
				err = fmt.Errorf("%s differs from %s", s.name, s.golden)
				c.ref[i].text = want
			}
		}
		return err
	}
	if len(out) != len(c.ref) {
		return fmt.Errorf("%d sections, reference has %d", len(out), len(c.ref))
	}
	for i := range out {
		if !bytes.Equal(out[i].text, c.ref[i].text) {
			return fmt.Errorf("%s differs from the reference pass", out[i].name)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssPasses is how many fresh processes measure peak_rss_mb.
const rssPasses = 3

// peakRSS measures peak_rss_mb for one sequential pass; tests, which
// cannot re-execute themselves as the benchmark, replace it.
var peakRSS = freshPassRSS

// freshPassRSS runs one sequential pass of w in a child process of this
// binary and returns the child's peak resident set size in MB: the
// footprint of one CLI invocation. The child reports its own high-water
// mark (VmHWM); its rusage maxrss would also count the parent's resident
// set, which the child shares until it executes. The child's GC stops the
// world, so its heap peak follows the pass's allocations alone; with the
// concurrent GC the peak depends on how promptly the host schedules the
// mark workers.
func freshPassRSS(w *workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, "--one-pass", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(os.Getenv("GODEBUG")+",gcstoptheworld=1", ","))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("one-pass child: %w: %s", err, stderr.String())
	}
	var kb float64
	if _, err := fmt.Sscanf(stdout.String(), "vmhwm_kb %g", &kb); err != nil {
		return 0, fmt.Errorf("one-pass child printed %q: %w", stdout.String(), err)
	}
	return kb / 1024, nil
}

// vmHWMKB reads this process's resident-set high-water mark in KB.
func vmHWMKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// Minimums that hold even when the budget is short, so every median has
// samples behind it.
const (
	minPairs      = 3
	minSetups     = 5
	maxSetupShare = 0.1
)

// measureEndToEnd runs one workload with tracing off for about budget and
// returns its end-to-end metrics.
func measureEndToEnd(w *workload, seed int64, budget time.Duration, log io.Writer) (map[string]float64, tally) {
	c := &checker{w: w, seed: seed, log: log}
	c.run(false, nil) // warm-up and reference
	deadline := time.Now().Add(budget)

	var setups []float64
	var setupErr error
	setupEnd := time.Now().Add(time.Duration(float64(budget) * maxSetupShare))
	for len(setups) < minSetups || time.Now().Before(setupEnd) {
		// Hand freed memory back to the OS first, so every set-up pays
		// for fresh pages as a new CLI process does; reusing the heap's
		// free spans instead makes the time bimodal.
		debug.FreeOSMemory()
		start := time.Now()
		if err := w.setup(seed); err != nil {
			setupErr = err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	c.attempted++
	if setupErr != nil {
		c.failed++
		fmt.Fprintf(log, "FAIL %s setup: %v\n", w.name, setupErr)
	}

	var rss []float64
	var rssErr error
	for i := 0; i < rssPasses; i++ {
		mb, err := peakRSS(w, seed)
		if err != nil {
			rssErr = err
		}
		rss = append(rss, mb)
	}
	c.attempted++
	if rssErr != nil {
		c.failed++
		fmt.Fprintf(log, "FAIL %s peak RSS: %v\n", w.name, rssErr)
	}

	kernel := newRefKernel()
	var seq, par, mb, allocs, refs []float64
	for len(seq) < minPairs || time.Now().Before(deadline) {
		var before, after runtime.MemStats
		runtime.GC()
		refs = append(refs, kernel.run())
		runtime.ReadMemStats(&before)
		d, _ := c.run(false, nil)
		runtime.ReadMemStats(&after)
		seq = append(seq, d.Seconds())
		mb = append(mb, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/1e3)

		runtime.GC()
		refs = append(refs, kernel.run())
		d, _ = c.run(true, nil)
		par = append(par, d.Seconds())
	}
	scale := refNominalS / median(refs)

	errPct := 0.0
	c.attempted++
	figs, err := runFigures(paperFigures, seed)
	if err == nil {
		errPct, err = paperErrPct(figs)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(log, "FAIL paper_err_pct: %v\n", err)
	}
	fmt.Fprintf(log, "%s seed %d: %d setups, median %.6f s as measured; seq passes (s) %.4f; par2 passes (s) %.4f\n", w.name, seed, len(setups), median(setups), seq, par)
	fmt.Fprintf(log, "%s seed %d: reference kernel median %.5f s (nominal %.3f s): host times scaled by %.4f\n", w.name, seed, median(refs), refNominalS, scale)
	return map[string]float64{
		"wall_s":        median(seq) * scale,
		"wall_par2_s":   median(par) * scale,
		"setup_s":       median(setups) * scale,
		"alloc_mb":      median(mb),
		"allocs_k":      median(allocs),
		"peak_rss_mb":   median(rss),
		"paper_err_pct": errPct,
	}, c.tally
}

// passShare is the part of a traced run's budget spent on workload passes;
// the per-layer microbenchmarks get the rest.
const passShare = 0.4

// measureTraced runs untraced and traced sequential passes alternately,
// then the per-layer microbenchmarks (each inside a span), and returns the
// per-layer metrics plus trace_overhead_pct.
func measureTraced(w *workload, seed int64, budget time.Duration, spanPath string, log io.Writer) (map[string]float64, tally) {
	c := &checker{w: w, seed: seed, log: log}
	c.run(false, nil) // warm-up and reference
	passBudget := time.Duration(float64(budget) * passShare)
	passEnd := time.Now().Add(passBudget)
	tr := newTracer()
	var plain, traced []float64
	for len(plain) < minPairs || time.Now().Before(passEnd) {
		runtime.GC()
		d, _ := c.run(false, nil)
		plain = append(plain, d.Seconds())
		runtime.GC()
		d, _ = c.run(false, tr)
		traced = append(traced, d.Seconds())
	}
	vals, t := measureLayers(seed, budget-passBudget, tr, log)
	c.tally.add(t)
	base := median(plain)
	vals["trace_overhead_pct"] = 100 * (median(traced) - base) / base
	if err := writeSpanReport(log, spanPath, w.name, tr.spans); err != nil {
		fmt.Fprintf(log, "span report: %v\n", err)
	}
	return vals, c.tally
}

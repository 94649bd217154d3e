package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/trace"
)

// procBudget stops a measurement loop before the run's 180 s limit: no
// new sample starts once this much time is spent.
const procBudget = 130 * time.Second

// runCold measures a user's first `pimsim run all`: a fresh process whose
// default -tracestore=auto store ($GOPIM_TRACE_DIR) is an empty directory.
// It records every kernel, compiles and replays every trace and writes the
// store through; each sample's stdout must hash to the direct-execution
// digest.
func runCold(e *env) error {
	storeDir := e.path("store")
	// Set-up is the CLI's start-up on the empty default store each sample
	// gets: process start, store resolution through $GOPIM_TRACE_DIR and
	// store open, as every measured run pays before its work. pimsim has
	// no command that stops there, so an empty store's verify stands in.
	// Repeated, median.
	var setups []float64
	for i := 0; i < 41; i++ {
		os.RemoveAll(storeDir)
		r, err := runProc([]string{e.pimsim, "trace", "verify"}, "GOPIM_TRACE_DIR="+storeDir)
		if err != nil {
			return fmt.Errorf("run-cold set-up: %w", err)
		}
		setups = append(setups, r.Wall.Seconds())
	}
	e.setSamples("setup_s", "s", setups)
	if e.tr != nil {
		return runColdTraced(e, storeDir)
	}
	return e.measureProcs(func() (procRun, bool) { return e.coldRun(storeDir) }, float64(len(experiments.Names())))
}

// coldRun runs `pimsim run all` once on an empty store and checks its
// output against the direct-execution digest.
func (e *env) coldRun(storeDir string, extra ...string) (procRun, bool) {
	os.RemoveAll(storeDir)
	defer os.RemoveAll(storeDir)
	args := append([]string{"-scale", "quick", "run", "all"}, extra...)
	return e.cliRun(args, storeDir, func(out []byte) bool { return matchesDigest(out, runAllDigest()) },
		"run all stdout differs from the direct-execution digest")
}

// cliRun runs the pimsim CLI once with storeDir as its default store and
// checks stdout; every call is one attempted operation.
func (e *env) cliRun(args []string, storeDir string, check func([]byte) bool, what string) (procRun, bool) {
	e.rep.attempted++
	r, err := runProc(append([]string{e.pimsim}, args...), "GOPIM_TRACE_DIR="+storeDir)
	if err != nil {
		e.rep.fail(err)
		return r, false
	}
	if !check(r.Stdout) {
		e.rep.mismatch(what)
		return r, false
	}
	return r, true
}

// measureProcs runs one fresh CLI process after another and sets the
// end-to-end metrics from them; items is the work one process completes.
// It runs at least two, and starts another only while at least half of it
// (by the median so far) falls inside --seconds, so a run lasts about
// --seconds however fast the host is. Throughput is items over the median
// wall time, so it moves with wall_s. It stops at the first process that
// fails (the run is then incorrect); if that is the first, there is
// nothing to measure, so it sets no metric and returns an error.
func (e *env) measureProcs(run func() (procRun, bool), items float64) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var walls, rss []float64
	start := time.Now()
	for time.Since(start) < procBudget {
		if len(walls) >= 2 && time.Since(start).Seconds()+median(walls)/2 >= e.seconds.Seconds() {
			break
		}
		r, ok := run()
		if !ok {
			break // the run is already incorrect
		}
		walls = append(walls, r.Wall.Seconds())
		rss = append(rss, float64(r.MaxRSS)/(1<<20))
	}
	if len(walls) == 0 {
		return fmt.Errorf("%s: no process ran correctly", e.workload)
	}
	e.setSamples("wall_s", "s", walls)
	e.setSamples("rss_peak_mb", "MB", rss)
	e.rep.set("throughput_per_s", "1/s", items/median(walls))
	return nil
}

// setSamples records xs as a metric's samples and sets it to their median.
func (e *env) setSamples(name, unit string, xs []float64) {
	for _, x := range xs {
		e.rep.sample(name, x)
	}
	e.rep.set(name, unit, median(xs))
}

// cpuUtil is a process's CPU time over the capacity its wall time offered.
func cpuUtil(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// runColdTraced walks the layers in-process, then times one plain CLI run,
// one with observability attached (obs.overhead_pct) and one traced child
// that spans the workload's own calls (bench.trace_overhead_pct).
func runColdTraced(e *env, storeDir string) error {
	c := trace.NewCache()
	w := walkInputs(e, c)
	res, err := experiments.Explore(experiments.Options{Scale: gopim.Quick, Traces: c}, exploreSpec(e.seed))
	if err != nil {
		return err
	}
	if err := w.layers(e.path("walkstore"), uniquePoints(res)); err != nil {
		return err
	}
	e.walkMetrics()

	plain, ok := e.coldRun(storeDir)
	if !ok {
		return nil
	}
	e.rep.set("par.cpu_util", "ratio", cpuUtil(plain.CPU, plain.Wall))
	if withObs, ok := e.coldRun(storeDir, "-report", e.path("report.json")); ok {
		e.rep.set("obs.overhead_pct", "%", 100*(withObs.Wall.Seconds()/plain.Wall.Seconds()-1))
	}
	os.RemoveAll(storeDir)
	defer os.RemoveAll(storeDir)
	e.tracedChild([]string{"run-cold", "-store", storeDir}, plain.Wall,
		func(out []byte) bool { return matchesDigest(out, runAllDigest()) })
	return nil
}

// Command gopimbench is the repository's benchmark: three workloads over
// the gopim simulator, each checked against an output oracle, reporting
// end-to-end host times (untraced) or per-layer times (traced).
//
// Usage, from the repository root (perfbench/run.py builds the binaries
// and passes these flags through):
//
//	gopimbench --workload run-cold|explore-store|serve-mix --seed N --seconds S --trace 0|1
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it carries the host
// fingerprint, the raw samples behind each metric and any per-layer
// metric the run could not measure. Everything the run writes lives under
// .bench_build/ in the working directory and is removed on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's result.
type report struct {
	attempted, failed int
	mismatches        []string
	metrics           map[string]metric
	samples           map[string][]float64
	dropped           []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string][]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// sample records one raw observation behind a metric.
func (r *report) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// fail counts a failed operation (an error or a rejection). Any failure
// makes the run incorrect.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "gopimbench: %v\n", err)
}

// mismatch records an output that differs from its oracle. It fails the
// operation and makes the run incorrect.
func (r *report) mismatch(msg string) {
	r.mismatches = append(r.mismatches, msg)
	r.fail(fmt.Errorf("oracle mismatch: %s", msg))
}

// correct reports whether every attempted operation succeeded and matched
// its oracle (a mismatch is a failure too).
func (r *report) correct() bool { return r.failed == 0 }

// drop notes a per-layer metric the run could not measure.
func (r *report) drop(msg string) { r.dropped = append(r.dropped, msg) }

// env is one benchmark run's context.
type env struct {
	seed     int64
	seconds  time.Duration
	work     string // scratch directory, removed on exit
	pimsim   string // the pimsim CLI under test
	self     string // this binary, for traced child processes
	tr       *Tracer
	rep      *report
	workload string
}

// path returns a path under the run's scratch directory.
func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// End-to-end metrics (untraced runs) and their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// serveEndToEnd are serve-mix's job latency percentiles, printed besides
// endToEnd. The CLI workloads have no percentile with ten samples beyond
// it, so these are serve-mix's alone.
var serveEndToEnd = [][2]string{
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
}

// perLayer returns the per-layer metrics (traced runs) and their units.
// Every traced run reports all of them; a layer the workload bypasses
// reads 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"gopim.evalclip_s", "s"},
		{"gopim.targets_s", "s"},
	}
	for _, l := range []string{"record_s", "store_save_s", "store_load_s", "compile_s", "replay_s", "replay_interp_s", "replay_batch_s"} {
		for _, f := range familyOrder {
			m = append(m, [2]string{"trace." + l + "." + f, "s"})
		}
	}
	return append(m, [][2]string{
		{"core.price_s", "s"},
		{"experiments.run_all_s", "s"},
		{"experiments.explore_s", "s"},
		{"experiments.render_s", "s"},
		{"par.cpu_util", "ratio"},
		{"serve.queue_wait_p50_s", "s"},
		{"serve.queue_wait_p90_s", "s"},
		{"serve.service_p50_s", "s"},
		{"serve.cells_computed", "count"},
		{"serve.cells_coalesced", "count"},
		{"serve.memo_hits", "count"},
		{"serve.rejected", "count"},
		{"serve.generator_late_max_s", "s"},
		{"trace.cache_records", "count"},
		{"trace.cache_replays", "count"},
		{"trace.cache_hit_ratio", "ratio"},
		{"trace.store_hits", "count"},
		{"trace.store_saves", "count"},
		{"obs.overhead_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
		{"failed_frac", "ratio"},
	}...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run-cold, explore-store or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 45, "measurement time per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	pimsim := flag.String("pimsim", filepath.Join(".bench_build", "bin", "pimsim"), "pimsim binary under test")
	flag.Parse()

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		work: work, pimsim: *pimsim, self: self, rep: newReport(), workload: *workload,
	}
	if *traced == 1 {
		e.tr = newTracer(fmt.Sprintf("%s-seed%d", *workload, *seed))
	}
	code := run(e)
	os.RemoveAll(work)
	os.Exit(code)
}

// run executes the workload and prints its result; it returns the exit
// code, non-zero unless the run is correct. A set-up error, or an untraced
// run missing an end-to-end metric, prints no result.
func run(e *env) int {
	var err error
	switch e.workload {
	case "run-cold":
		err = runCold(e)
	case "explore-store":
		err = exploreStore(e)
	case "serve-mix":
		err = serveMix(e)
	default:
		err = fmt.Errorf("unknown workload %q (want run-cold, explore-store or serve-mix)", e.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gopimbench: %v\n", err)
		return 1
	}
	rep := e.rep
	if rep.attempted == 0 {
		fmt.Fprintln(os.Stderr, "gopimbench: no operation was attempted")
		return 1
	}
	rep.set("failed_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	if e.tr != nil {
		if err := e.tr.WriteFile(filepath.Join(".bench_build", "spans-"+e.workload+".json")); err != nil {
			fmt.Fprintf(os.Stderr, "gopimbench: writing spans: %v\n", err)
		}
	}
	want := endToEnd
	if e.workload == "serve-mix" {
		want = append(want, serveEndToEnd...)
	}
	if e.tr != nil {
		want = perLayer()
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := rep.metrics[m[0]]
		if !ok {
			if e.tr == nil {
				fmt.Fprintf(os.Stderr, "gopimbench: no %s measured\n", m[0])
				return 1
			}
			v = metric{Unit: m[1]} // a layer this workload bypasses
		}
		out[m[0]] = v
	}
	side := map[string]any{
		"workload":    e.workload,
		"seed":        e.seed,
		"traced":      e.tr != nil,
		"fingerprint": fingerprint(e.seed),
		"samples":     rep.samples,
		"dropped":     rep.dropped,
		"mismatches":  rep.mismatches,
	}
	emit(side)
	emit(map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if !rep.correct() {
		return 1
	}
	return 0
}

// emit prints v as one JSON line.
func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gopimbench: %v\n", err)
	os.Exit(1)
}

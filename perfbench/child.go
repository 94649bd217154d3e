package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/trace"
)

// childReport is what a traced child hands back besides its stdout.
type childReport struct {
	Spans []Span           `json:"spans"`
	Cache trace.Stats      `json:"cache"`
	Store trace.StoreStats `json:"store"`
}

// childMain is a traced child process: it does what `pimsim run all` or
// `pimsim explore` does, with spans around each public call, prints the
// same stdout and writes its spans and cache/store counters to -report.
//
//	gopimbench child run-cold -store DIR -report FILE
//	gopimbench child explore -store DIR -n N -seed S -report FILE
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "gopimbench child: want run-cold or explore")
		return 2
	}
	kind := args[0]
	fs := flag.NewFlagSet("child "+kind, flag.ContinueOnError)
	storeDir := fs.String("store", "", "trace store directory")
	reportPath := fs.String("report", "", "where to write spans and counters")
	n := fs.Int("n", exploreN, "explore: design points")
	seed := fs.Int64("seed", 1, "explore: sampling seed")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	st, err := trace.OpenStore(*storeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gopimbench child: %v\n", err)
		return 1
	}
	c := trace.NewCache()
	c.Store = st
	o := experiments.Options{Scale: gopim.Quick, Traces: c}
	tr := newTracer(kind + "/child")
	root := tr.Start("child."+kind, 0)
	var out bytes.Buffer
	ctx := context.Background()
	switch kind {
	case "run-cold":
		var res []experiments.RunResult
		tr.Do("experiments.RunAllCtx", root, func() { res, err = experiments.RunAllCtx(ctx, o) })
		if err == nil {
			tr.Do("experiments.Render", root, func() { err = renderRuns(&out, res) })
		}
	case "explore":
		c.Limit = 512 << 20 // pimsim explore's default bound
		var res *experiments.ExploreResult
		tr.Do("experiments.ExploreCtx", root, func() {
			res, err = experiments.ExploreCtx(ctx, o, experiments.ExploreOptions{Mode: "random", N: *n, Seed: *seed})
		})
		if err == nil {
			tr.Do("experiments.RenderExplore", root, func() { err = experiments.RenderExplore(&out, res, "text") })
		}
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gopimbench child: %v\n", err)
		return 1
	}
	tr.Do("trace.Store.Wait", root, st.Wait)
	tr.End(root)
	os.Stdout.Write(out.Bytes())
	data, err := json.Marshal(childReport{Spans: tr.Spans(), Cache: c.Stats(), Store: st.Stats()})
	if err == nil {
		err = os.WriteFile(*reportPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gopimbench child: %v\n", err)
		return 1
	}
	return 0
}

// renderRuns prints experiment results exactly as `pimsim run` does.
func renderRuns(w *bytes.Buffer, res []experiments.RunResult) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		fmt.Fprintf(w, "==== %s ====\n", r.Name)
		if err := experiments.Render(w, r.Name, r.Data); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tracedChild runs a traced child, checks its stdout, and takes its spans
// and counters into the report. plainWall is the untraced CLI's wall time
// for the same work, against which tracing overhead is reported.
func (e *env) tracedChild(args []string, plainWall time.Duration, check func([]byte) bool) {
	path := e.path("child.json")
	e.rep.attempted++
	r, err := runProc(append(append([]string{e.self, "child"}, args...), "-report", path))
	if err != nil {
		e.rep.fail(err)
		return
	}
	if !check(r.Stdout) {
		e.rep.mismatch("traced child stdout differs from the oracle")
		return
	}
	var cr childReport
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &cr)
	}
	if err != nil {
		e.rep.fail(err)
		return
	}
	e.tr.Import(cr.Spans)
	e.rep.set("bench.trace_overhead_pct", "%", 100*(r.Wall.Seconds()/plainWall.Seconds()-1))
	e.rep.set("experiments.run_all_s", "s", spanSeconds(cr.Spans, "experiments.RunAllCtx"))
	e.rep.set("experiments.explore_s", "s", spanSeconds(cr.Spans, "experiments.ExploreCtx"))
	e.rep.set("experiments.render_s", "s",
		spanSeconds(cr.Spans, "experiments.Render")+spanSeconds(cr.Spans, "experiments.RenderExplore"))
	e.setCacheMetrics(cr.Cache, cr.Store)
}

// setCacheMetrics reports a workload cache's and store's counters.
func (e *env) setCacheMetrics(c trace.Stats, s trace.StoreStats) {
	e.rep.set("trace.cache_records", "count", float64(c.Records))
	e.rep.set("trace.cache_replays", "count", float64(c.Replays))
	if c.Requests > 0 {
		e.rep.set("trace.cache_hit_ratio", "ratio", float64(c.Hits)/float64(c.Requests))
	}
	e.rep.set("trace.store_hits", "count", float64(s.Hits))
	e.rep.set("trace.store_saves", "count", float64(s.Saves))
}

// walkMetrics turns the layer walk's spans into per-layer metrics.
func (e *env) walkMetrics() {
	spans := e.tr.Spans()
	e.rep.set("gopim.evalclip_s", "s", spanSeconds(spans, "gopim.EvalClip"))
	e.rep.set("gopim.targets_s", "s", spanSeconds(spans, "gopim.Targets"))
	layers := [][2]string{
		{"record_s", "trace.Cache.TraceFor/"},
		{"store_save_s", "trace.Store.SaveAsync+Wait/"},
		{"store_load_s", "trace.Store.Load/"},
		{"compile_s", "trace.Trace.Compiled/"},
		{"replay_s", "trace.Trace.Replay/"},
		{"replay_interp_s", "trace.Trace.ReplayInterp/"},
		{"replay_batch_s", "trace.CompiledTrace.ReplayBatch/"},
	}
	price := 0.0
	for _, f := range familyOrder {
		for _, l := range layers {
			e.rep.set("trace."+l[0]+"."+f, "s", spanSeconds(spans, l[1]+f))
		}
		price += spanSeconds(spans, "core.Evaluator.EvaluateProfiles/"+f)
	}
	e.rep.set("core.price_s", "s", price)
}

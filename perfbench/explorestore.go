package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/profile"
	"gopim/internal/serve"
	"gopim/internal/trace"
)

// exploreStore measures `pimsim explore -mode random` in a fresh process
// against a store packed during set-up: store loads, compile, batched
// replay and pricing, with zero kernel records. The oracle is the same
// sweep explored in set-up through an in-memory recording cache.
func exploreStore(e *env) error {
	x := exploreSpec(e.seed)
	mem := trace.NewCache()
	var w *walk
	if e.tr != nil {
		w = walkInputs(e, mem)
	}
	res, err := experiments.Explore(experiments.Options{Scale: gopim.Quick, Traces: mem}, x)
	if err != nil {
		return fmt.Errorf("explore-store oracle: %w", err)
	}
	var want bytes.Buffer
	if err := experiments.RenderExplore(&want, res, "text"); err != nil {
		return fmt.Errorf("explore-store oracle: %w", err)
	}
	if w != nil {
		if err := w.layers(e.path("walkstore"), uniquePoints(res)); err != nil {
			return err
		}
		e.walkMetrics()
	}

	// Set-up is the store pack: the recorded traces written to a fresh
	// store; repeated, median. The last pack serves the measured runs.
	targets := gopim.Targets(gopim.Quick)
	var packs []float64
	storeDir := ""
	for i := 0; i < 5; i++ {
		dir := e.path(fmt.Sprintf("store%d", i))
		start := time.Now()
		st, err := trace.OpenStore(dir)
		if err != nil {
			return err
		}
		for _, t := range targets {
			st.SaveAsync(profile.KeyOf(t.Kernel), mem.TraceFor(t.Kernel))
		}
		st.Wait()
		packs = append(packs, time.Since(start).Seconds())
		if s := st.Stats(); s.Saves != int64(len(targets)) || s.SaveErrors != 0 {
			return fmt.Errorf("explore-store pack: %+v", s)
		}
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		storeDir = dir
	}
	e.setSamples("setup_s", "s", packs)
	mem, res = nil, nil
	runtime.GC()

	args := []string{"-scale", "quick", "explore", "-mode", x.Mode,
		"-n", strconv.Itoa(x.N), "-seed", strconv.FormatInt(x.Seed, 10)}
	check := func(out []byte) bool { return matchesBytes(out, want.Bytes()) }
	const what = "explore stdout differs from the in-memory recording oracle"
	if e.tr != nil {
		plain, ok := e.cliRun(args, storeDir, check, what)
		if !ok {
			return nil
		}
		e.rep.set("par.cpu_util", "ratio", cpuUtil(plain.CPU, plain.Wall))
		e.tracedChild([]string{"explore", "-store", storeDir, "-n", strconv.Itoa(x.N),
			"-seed", strconv.FormatInt(x.Seed, 10)}, plain.Wall, check)
		return serveWalk(e, storeDir, x, want.Bytes())
	}
	return e.measureProcs(func() (procRun, bool) { return e.cliRun(args, storeDir, check, what) }, float64(x.N))
}

// serveWalk takes the serve layer through one cell of each kind in a
// traced round on a fresh server over the packed store: two tenants submit
// the same sweep at once (one computes it, the other coalesces onto it)
// and a third submits it once both are done (a memo hit). Every result
// must equal the explore oracle, and the server must count exactly one
// cell of each kind.
func serveWalk(e *env, storeDir string, x experiments.ExploreOptions, want []byte) error {
	sp := serve.JobSpec{Kind: "explore", Scale: "quick", Mode: x.Mode, N: x.N, Seed: x.Seed, Format: "text"}
	round := []arrival{{Spec: sp}, {Spec: sp}, {Spec: sp, AfterPrior: true}}
	rr, err := e.serveRound(storeDir, round, func(serve.JobSpec) []byte { return want }, e.tr)
	if err != nil {
		return err
	}
	e.setServeMetrics(rr)
	computed := rr.reg.Counter("serve.cells.computed").Value()
	coalesced := rr.reg.Counter("serve.cells.coalesced").Value()
	hits := rr.reg.Counter("serve.cells.memo_hits").Value()
	if computed != 1 || coalesced != 1 || hits != 1 {
		e.rep.fail(fmt.Errorf("serve walk: %d computed, %d coalesced, %d memo hits; want 1 of each", computed, coalesced, hits))
	}
	return nil
}

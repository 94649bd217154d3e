package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gopim"
	"gopim/experiments"
	"gopim/internal/obs"
	"gopim/internal/par"
	"gopim/internal/serve"
	"gopim/internal/trace"
)

// serveMaxRounds bounds how many rounds a schedule holds; a run stops
// earlier, once it has measured for --seconds and minServeJobs jobs.
const serveMaxRounds = 40

// minServeJobs makes job_p90_s rest on at least ten samples beyond it.
const minServeJobs = 100

// serveMix measures an in-process serve.Server with pimsimd's defaults
// (two job runners, Workers = GOMAXPROCS) under an open loop of tenants.
// Each round starts a fresh server over a fresh cache on the store packed
// in set-up, so rounds are alike; one generator goroutine submits the
// round's seeded arrivals and each job is timed from its scheduled
// arrival. Every job's bytes are checked against its spec computed
// directly through experiments.RunNamed / Explore in set-up.
//
// serve-mix is not in BENCHMARK.json: across seeds its job_p50_s spreads
// wider than any bound allowed there (layers.json gives the numbers).
func serveMix(e *env) error {
	sch := makeServeSchedule(e.seed, serveMaxRounds)
	storeDir := e.path("store")
	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return err
	}
	mem := trace.NewCache()
	mem.Store = st // the recording cache packs the store as it goes
	o := experiments.Options{Scale: gopim.Quick, Traces: mem}

	// Set-up: the clip, built once (in a traced run, inside the walk).
	var clip time.Duration
	if e.tr != nil {
		w := walkInputs(e, mem)
		res, err := experiments.Explore(o, exploreSpec(e.seed))
		if err != nil {
			return err
		}
		if err := w.layers(e.path("walkstore"), uniquePoints(res)); err != nil {
			return err
		}
		e.walkMetrics()
		clip = time.Duration(spanSeconds(e.tr.Spans(), "gopim.EvalClip") * float64(time.Second))
	} else {
		start := time.Now()
		gopim.EvalClip(gopim.Quick)
		clip = time.Since(start)
	}

	// Oracles: every run-job cell and every explore seed, computed directly.
	chunks, err := runChunks(o)
	if err != nil {
		return fmt.Errorf("serve-mix oracle: %w", err)
	}
	var all []byte
	for _, name := range experiments.Names() {
		all = append(all, chunks[name]...)
	}
	if !matchesDigest(all, runAllDigest()) {
		e.rep.mismatch("serve-mix oracle: run all through the recording cache differs from the direct-execution digest")
	}
	explores := map[int64][]byte{}
	for _, seed := range sch.ExploreSeeds {
		res, err := experiments.Explore(o, experiments.ExploreOptions{Mode: "random", N: serveExploreN, Seed: seed})
		if err != nil {
			return fmt.Errorf("serve-mix oracle: %w", err)
		}
		var b bytes.Buffer
		if err := experiments.RenderExplore(&b, res, "text"); err != nil {
			return err
		}
		explores[seed] = b.Bytes()
	}
	st.Wait()
	mem = nil
	runtime.GC()
	oracle := func(sp serve.JobSpec) []byte {
		if sp.Kind == "explore" {
			return explores[sp.Seed]
		}
		var b []byte
		for _, name := range sp.Experiments {
			b = append(b, chunks[name]...)
		}
		return b
	}

	// Set-up, continued: store open and server start; repeated, median.
	var starts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		srv, _, err := startServer(storeDir)
		if err != nil {
			return err
		}
		starts = append(starts, time.Since(t0).Seconds())
		srv.Close()
	}
	for _, s := range starts {
		e.rep.sample("setup_s", clip.Seconds()+s)
	}
	e.rep.set("setup_s", "s", clip.Seconds()+median(starts))

	if e.tr != nil {
		return serveTraced(e, storeDir, sch.Rounds[0], oracle)
	}
	var lat, walls []float64
	completed := 0
	start := time.Now()
	for _, round := range sch.Rounds {
		if time.Since(start) >= e.seconds && len(lat) >= minServeJobs || time.Since(start) > procBudget {
			break
		}
		rr, err := e.serveRound(storeDir, round, oracle, nil)
		if err != nil {
			return err
		}
		for _, j := range rr.jobs {
			lat = append(lat, j.latency.Seconds())
			e.rep.sample("job_latency_s", j.latency.Seconds())
		}
		completed += len(rr.jobs)
		walls = append(walls, rr.makespan.Seconds())
		e.rep.sample("generator_late_max_s", rr.lateMax.Seconds())
	}
	p50, p90 := percentile(lat, 0.5), percentile(lat, 0.9)
	if p90.Beyond < 10 {
		e.rep.drop(fmt.Sprintf("job_p90_s rests on %d samples beyond it (want 10)", p90.Beyond))
	}
	e.rep.set("job_p50_s", "s", p50.Value)
	e.rep.set("job_p90_s", "s", p90.Value)
	e.setSamples("wall_s", "s", walls)
	if t := sum(walls); t > 0 {
		e.rep.set("throughput_per_s", "1/s", float64(completed)/t)
	}
	e.rep.set("rss_peak_mb", "MB", float64(selfMaxRSS())/(1<<20))
	return nil
}

// runChunks computes every experiment through o and renders each the way
// a serve run cell does (and `pimsim run` prints it).
func runChunks(o experiments.Options) (map[string][]byte, error) {
	res, err := experiments.RunNamed(o, experiments.Names())
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, r := range res {
		var b bytes.Buffer
		if err := renderRuns(&b, []experiments.RunResult{r}); err != nil {
			return nil, err
		}
		out[r.Name] = b.Bytes()
	}
	return out, nil
}

// startServer opens the packed store under a fresh cache and starts a
// server on it with pimsimd's defaults.
func startServer(storeDir string) (*serve.Server, *trace.Cache, error) {
	st, err := trace.OpenStore(storeDir)
	if err != nil {
		return nil, nil, err
	}
	c := trace.NewCache()
	c.Store = st
	return serve.NewServer(serve.Config{Traces: c, Reg: obs.NewRegistry()}), c, nil
}

// jobOutcome is one completed job as its tenant saw it.
type jobOutcome struct {
	latency   time.Duration // scheduled arrival → done
	queueWait time.Duration // traced rounds: submitted → first seen running
	service   time.Duration // traced rounds: first seen running → done
}

// roundResult is one round's measurements.
type roundResult struct {
	jobs     []jobOutcome
	makespan time.Duration // round start → last job done
	cpu      time.Duration // process CPU over the round
	lateMax  time.Duration // worst generator lateness against the schedule
	reg      *obs.Registry
	cache    trace.Stats
	store    trace.StoreStats
}

// serveRound plays one round of arrivals against a fresh server. With a
// tracer it spans each tenant's Submit, Wait and Result calls and polls
// job status to split queue wait from service time.
func (e *env) serveRound(storeDir string, round []arrival, oracle func(serve.JobSpec) []byte, tr *Tracer) (roundResult, error) {
	srv, c, err := startServer(storeDir)
	if err != nil {
		return roundResult{}, err
	}
	reg := srv.Registry()
	par.SetObs(reg) // as pimsimd does
	defer par.SetObs(nil)

	type slot struct {
		job       *serve.Job
		due       time.Duration // scheduled arrival
		submitted time.Duration
		started   time.Duration
		done      time.Duration
		out       []byte
		err       error
	}
	slots := make([]slot, len(round))
	var mu sync.Mutex // guards slots[i].job and .started against the status poller
	var rr roundResult
	start := time.Now()
	cpu0 := selfCPU()

	stop := make(chan struct{})
	var poller sync.WaitGroup
	if tr != nil {
		poller.Add(1)
		go func() {
			defer poller.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				mu.Lock()
				for i := range slots {
					s := &slots[i]
					if s.job != nil && s.started == 0 && s.job.Status().State != serve.StateQueued {
						s.started = time.Since(start)
					}
				}
				mu.Unlock()
			}
		}()
	}

	var tenants sync.WaitGroup
	for i, a := range round {
		due := a.At
		if a.AfterPrior {
			tenants.Wait()
			due = max(due, time.Since(start))
		}
		time.Sleep(time.Until(start.Add(due)))
		now := time.Since(start)
		rr.lateMax = max(rr.lateMax, now-due)
		e.rep.attempted++
		root := tr.Start("serve.job", 0)
		var j *serve.Job
		tr.Do("serve.Server.Submit", root, func() { j, err = srv.Submit(a.Spec) })
		if err != nil {
			tr.End(root)
			if errors.Is(err, serve.ErrQueueFull) {
				err = fmt.Errorf("job %d rejected: %w", i, err)
			}
			e.rep.fail(err)
			continue
		}
		mu.Lock()
		slots[i].job, slots[i].due, slots[i].submitted = j, due, now
		mu.Unlock()
		tenants.Add(1)
		go func(s *slot) {
			defer tenants.Done()
			tr.Do("serve.Job.Wait", root, func() { s.err = j.Wait(context.Background()) })
			s.done = time.Since(start)
			if s.err == nil {
				tr.Do("serve.Job.Result", root, func() { s.out, s.err = j.Result() })
			}
			tr.End(root)
		}(&slots[i])
	}
	tenants.Wait()
	rr.makespan = time.Since(start)
	close(stop)
	poller.Wait()
	srv.Close()
	rr.cpu = selfCPU() - cpu0
	rr.reg, rr.cache, rr.store = reg, c.Stats(), c.Store.Stats()

	for i, s := range slots {
		if s.job == nil {
			continue
		}
		if s.err != nil {
			e.rep.fail(fmt.Errorf("job %d: %w", i, s.err))
			continue
		}
		if !matchesBytes(s.out, oracle(round[i].Spec)) {
			e.rep.mismatch(fmt.Sprintf("serve job %d (%s %v) differs from its directly computed spec", i, round[i].Spec.Kind, round[i].Spec.Experiments))
			continue
		}
		o := jobOutcome{latency: s.done - s.due}
		if s.started > 0 {
			o.queueWait, o.service = s.started-s.submitted, s.done-s.started
		}
		rr.jobs = append(rr.jobs, o)
	}
	return rr, nil
}

// serveTraced plays one round untraced (the baseline, and par.cpu_util)
// and the same round traced, and reports the serve layer from the traced
// one.
func serveTraced(e *env, storeDir string, round []arrival, oracle func(serve.JobSpec) []byte) error {
	plain, err := e.serveRound(storeDir, round, oracle, nil)
	if err != nil {
		return err
	}
	e.rep.set("par.cpu_util", "ratio", cpuUtil(plain.cpu, plain.makespan))
	traced, err := e.serveRound(storeDir, round, oracle, e.tr)
	if err != nil {
		return err
	}
	var latT, latP []float64
	for _, j := range traced.jobs {
		latT = append(latT, j.latency.Seconds())
	}
	for _, j := range plain.jobs {
		latP = append(latP, j.latency.Seconds())
	}
	if s := sum(latP); s > 0 {
		e.rep.set("bench.trace_overhead_pct", "%", 100*(sum(latT)/s-1))
	}
	e.setServeMetrics(traced)
	e.setCacheMetrics(traced.cache, traced.store)
	return nil
}

// setServeMetrics reports the serve layer from a traced round: queue wait
// and service time per job, and the server's own cell and admission
// counters.
func (e *env) setServeMetrics(rr roundResult) {
	var wait, service []float64
	for _, j := range rr.jobs {
		wait = append(wait, j.queueWait.Seconds())
		service = append(service, j.service.Seconds())
	}
	e.rep.set("serve.queue_wait_p50_s", "s", percentile(wait, 0.5).Value)
	e.rep.set("serve.queue_wait_p90_s", "s", percentile(wait, 0.9).Value)
	e.rep.set("serve.service_p50_s", "s", percentile(service, 0.5).Value)
	e.rep.set("serve.cells_computed", "count", float64(rr.reg.Counter("serve.cells.computed").Value()))
	e.rep.set("serve.cells_coalesced", "count", float64(rr.reg.Counter("serve.cells.coalesced").Value()))
	e.rep.set("serve.memo_hits", "count", float64(rr.reg.Counter("serve.cells.memo_hits").Value()))
	e.rep.set("serve.rejected", "count", float64(rr.reg.Counter("serve.jobs.rejected").Value()))
	e.rep.set("serve.generator_late_max_s", "s", rr.lateMax.Seconds())
}

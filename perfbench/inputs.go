package main

import (
	"fmt"
	"math/rand"
	"time"

	"gopim/experiments"
	"gopim/internal/serve"
)

// Workload inputs, all drawn from the benchmark seed. The program under
// test only ever sees the generated values (an explore seed, job specs),
// never the benchmark seed itself.

// exploreN is explore-store's sweep size. The random axes hold 34
// distinct cache geometries and 256 points cover all of them for any
// seed, so every seed replays the same batched walks: the seed changes
// which points are priced and the frontiers, not the replay work. (At 64
// points a seed draws 27 to 30 geometries, and wall_s followed the draw.)
const exploreN = 256

// exploreSpec returns explore-store's random-mode sweep for seed.
func exploreSpec(seed int64) experiments.ExploreOptions {
	rng := rand.New(rand.NewSource(seed ^ 0x6578706c6f7265))
	return experiments.ExploreOptions{Mode: "random", N: exploreN, Seed: rng.Int63n(1 << 31)}
}

// Serve-mix shape. Every round does the same work in a seeded order, so
// rounds and seeds are alike. The run jobs walk the pool in a seeded
// cyclic order, each asking for the next experiment and the one before
// it: every job computes one new cell and overlaps its predecessor on the
// other (a memo hit, or a coalesced wait while that cell is still being
// computed). They arrive with jittered gaps around serveMeanGap. Then
// serveExploreJobs tenants ask for the same small random explore, its
// seed from a fixed three-seed pool: one computes it, the others coalesce
// onto it. The explores come last so that the light run jobs do not queue
// behind them: job_p50_s is run-job service time under light load, and
// job_p90_s falls inside the explore tail, not on its edge.
const (
	serveMeanGap     = 100 * time.Millisecond
	serveExploreJobs = 3
	serveExploreN    = 8
)

// servePool is the experiments run jobs draw from: those whose cells
// replay small kernel traces. The experiments that price the nine big
// PIM-target traces (battery, fig20, headline, plan, targets) are left to
// the explore jobs, which load the same traces and form the latency tail;
// table1 and areas compute nothing, so a job of them would time only the
// queue.
func servePool() []string {
	skip := map[string]bool{"table1": true, "areas": true, "battery": true, "fig20": true,
		"headline": true, "plan": true, "targets": true}
	var pool []string
	for _, name := range experiments.Names() {
		if !skip[name] {
			pool = append(pool, name)
		}
	}
	return pool
}

// arrival is one scheduled job: its offset from the round start and spec.
// An AfterPrior job is submitted no earlier than At and not before every
// earlier job of the round has finished; it is due from then.
type arrival struct {
	At         time.Duration
	Spec       serve.JobSpec
	AfterPrior bool
}

// serveSchedule is serve-mix's input: the explore seed pool and rounds of
// arrivals. Rounds are generated from one stream, so a seed fixes every
// round a run can reach.
type serveSchedule struct {
	ExploreSeeds []int64
	Rounds       [][]arrival
}

// makeServeSchedule draws rounds of open-loop arrivals for seed.
func makeServeSchedule(seed int64, rounds int) serveSchedule {
	rng := rand.New(rand.NewSource(seed ^ 0x73657276652d6d78))
	// The explore seed pool is fixed: a sweep's cost depends on the
	// geometries its seed draws, and the seed should vary the schedule,
	// not the amount of work.
	sch := serveSchedule{ExploreSeeds: []int64{1, 2, 3}}
	pool := servePool()
	for r := 0; r < rounds; r++ {
		var specs []serve.JobSpec
		order := rng.Perm(len(pool))
		for i, k := range order {
			prev := order[(i+len(order)-1)%len(order)]
			specs = append(specs, serve.JobSpec{Kind: "run", Experiments: []string{pool[k], pool[prev]}})
		}
		seed := sch.ExploreSeeds[rng.Intn(len(sch.ExploreSeeds))]
		for i := 0; i < serveExploreJobs; i++ {
			specs = append(specs, serve.JobSpec{Kind: "explore", Mode: "random", N: serveExploreN, Seed: seed, Format: "text"})
		}
		var at time.Duration
		round := make([]arrival, len(specs))
		for i, sp := range specs {
			if i > 0 {
				at += time.Duration((0.5 + rng.Float64()) * float64(serveMeanGap))
			}
			sp.Scale, sp.Tenant = "quick", fmt.Sprintf("tenant-%d", rng.Intn(4))
			round[i] = arrival{At: at, Spec: sp}
		}
		sch.Rounds = append(sch.Rounds, round)
	}
	return sch
}

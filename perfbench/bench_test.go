package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

func TestSeedFixesInputs(t *testing.T) {
	if a, b := exploreSpec(7), exploreSpec(7); a != b {
		t.Fatalf("same seed, different explore specs: %+v vs %+v", a, b)
	}
	if a, b := exploreSpec(7), exploreSpec(8); a.Seed == b.Seed {
		t.Fatalf("different seeds, same explore seed %d", a.Seed)
	}
	a, b := makeServeSchedule(7, 3), makeServeSchedule(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different serve schedules")
	}
	if c := makeServeSchedule(8, 3); reflect.DeepEqual(a.Rounds, c.Rounds) {
		t.Fatal("different seeds, same arrival schedule")
	}
	if !reflect.DeepEqual(makeServeSchedule(7, 5).Rounds[:3], a.Rounds) {
		t.Fatal("a longer schedule must extend the shorter one")
	}
}

// Every round does the same work: each pool experiment in two run jobs, then serveExploreJobs explores of one pool seed, arrivals in order.
func TestServeRoundsAreAlike(t *testing.T) {
	sch := makeServeSchedule(3, 4)
	pool := map[int64]bool{}
	for _, s := range sch.ExploreSeeds {
		pool[s] = true
	}
	for r, round := range sch.Rounds {
		uses := map[string]int{}
		seeds := map[int64]int{}
		var last time.Duration
		for _, a := range round {
			if a.At < last {
				t.Fatalf("round %d: arrivals out of order", r)
			}
			last = a.At
			switch a.Spec.Kind {
			case "run":
				for _, name := range a.Spec.Experiments {
					uses[name]++
				}
			case "explore":
				if !pool[a.Spec.Seed] {
					t.Fatalf("round %d: explore seed %d not from the pool", r, a.Spec.Seed)
				}
				seeds[a.Spec.Seed]++
			}
		}
		for _, name := range servePool() {
			if uses[name] != 2 {
				t.Errorf("round %d: %s in %d run jobs, want 2", r, name, uses[name])
			}
		}
		if len(seeds) != 1 || seeds[round[len(round)-1].Spec.Seed] != serveExploreJobs {
			t.Errorf("round %d: explore seeds %v, want %d jobs on one pool seed", r, seeds, serveExploreJobs)
		}
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	p := percentile(xs, 0.9)
	if p.N != 10 || p.Beyond != 1 || p.Value < 9 || p.Value > 10 {
		t.Fatalf("p90 of 1..10 = %+v, want 9 < value < 10 over N=10 with 1 beyond", p)
	}
	if p := percentile(xs, 0.5); p.Value != 5.5 || p.N != 10 || p.Beyond != 5 {
		t.Fatalf("p50 of 1..10 = %+v", p)
	}
	if p := percentile(nil, 0.5); p.N != 0 {
		t.Fatalf("empty set reports N=%d", p.N)
	}
	if p := percentile([]float64{3}, 0.9); p.Value != 3 || p.N != 1 || p.Beyond != 0 {
		t.Fatalf("single sample = %+v", p)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // only [90,100] lies inside root
		{ID: 5, Parent: 2, Start: 12, End: 18},  // grandchild: not root's child
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0)
	tr.End(id)
	ran := false
	tr.Do("y", id, func() { ran = true })
	if id != 0 || !ran || tr.Spans() != nil {
		t.Fatal("a nil tracer must run the call and record nothing")
	}
	tr = newTracer("t")
	root := tr.Start("root", 0)
	tr.Do("child", root, func() {})
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Trace != "t" || spans[1].End < spans[1].Start {
		t.Fatalf("spans %+v", spans)
	}
}

func TestOracleRejectsOneByteChange(t *testing.T) {
	out := []byte("==== fig1 ====\nworkload  energy\nChrome    1.00\n\n")
	digest := sha256Hex(out)
	if !matchesDigest(out, digest) || !matchesBytes(out, append([]byte(nil), out...)) {
		t.Fatal("identical output rejected")
	}
	for i := range out {
		bad := append([]byte(nil), out...)
		bad[i] ^= 1
		if matchesDigest(bad, digest) || matchesBytes(bad, out) {
			t.Fatalf("one-byte change at %d accepted", i)
		}
	}
	if matchesBytes(out[:len(out)-1], out) || matchesBytes(nil, nil) {
		t.Fatal("truncated or empty output accepted")
	}
	if len(runAllDigest()) != 64 {
		t.Fatalf("embedded run-all digest %q is not a SHA-256", runAllDigest())
	}
}

// The metrics the benchmark prints are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed [][2]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range declared {
			if m.Name != printed[i][0] || m.Unit != printed[i][1] {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, m.Name, m.Unit, printed[i][0], printed[i][1])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

// A process that fails fails the run: with no correct process measureProcs
// sets no end-to-end metric, and one failure among successes still makes
// the run incorrect.
func TestMeasureProcsFailingProcess(t *testing.T) {
	for _, prog := range []string{"false", "true"} {
		if _, err := exec.LookPath(prog); err != nil {
			t.Skipf("no %s program: %v", prog, err)
		}
	}
	pass := func([]byte) bool { return true }
	e := &env{rep: newReport(), pimsim: "false", workload: "run-cold"}
	err := e.measureProcs(func() (procRun, bool) { return e.cliRun(nil, t.TempDir(), pass, "") }, 1)
	if err == nil || len(e.rep.metrics) != 0 || e.rep.correct() {
		t.Fatalf("all processes failed: err %v, metrics %v, correct %v", err, e.rep.metrics, e.rep.correct())
	}
	if e.rep.attempted != 1 || e.rep.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 1 and 1", e.rep.attempted, e.rep.failed)
	}

	e = &env{rep: newReport(), workload: "run-cold"}
	n := 0
	err = e.measureProcs(func() (procRun, bool) {
		e.pimsim = []string{"true", "false"}[n%2]
		n++
		return e.cliRun(nil, t.TempDir(), pass, "")
	}, 1)
	if err != nil || e.rep.metrics["wall_s"].Value <= 0 {
		t.Fatalf("one process succeeded: err %v, metrics %v", err, e.rep.metrics)
	}
	if e.rep.correct() {
		t.Fatal("a run with a failed process reads correct")
	}
}

// A child's MaxRSS must be its own peak, not this process's: before the
// reset, a child started after this process touched 128 MiB reads at least
// that much.
func TestChildRSSExcludesParentPeak(t *testing.T) {
	if _, err := exec.LookPath("true"); err != nil {
		t.Skipf("no true program: %v", err)
	}
	big := make([]byte, 128<<20)
	for i := range big {
		big[i] = 1
	}
	big = nil
	if err := resetPeakRSS(); err != nil {
		t.Skip(err)
	}
	r, err := runProc([]string{"true"})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxRSS > 64<<20 {
		t.Fatalf("child MaxRSS %d MiB after the reset; want its own few MiB", r.MaxRSS>>20)
	}
}

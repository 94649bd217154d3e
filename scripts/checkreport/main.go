// Command checkreport validates a pimsim run report (the -report JSON):
// schema version, structural sanity of the metrics snapshot, and — with
// -warm — the warm-store invariants CI keeps continuously true: a run
// served entirely from a packed persistent trace store must hit the store
// 100% of the time and execute zero kernels (PR 6's "cold ≈ warm" claim).
// A warm explore must not encode the evaluation clip either.
//
// Usage:
//
//	go run ./scripts/checkreport [-warm] report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gopim/internal/obs"
)

func main() {
	warm := flag.Bool("warm", false, "assert warm-store invariants: 100% store hit rate, zero kernel executions (and, for explore, zero codec encodes)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: checkreport [-warm] <report.json>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fatalf("parsing %s: %v", path, err)
	}

	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	if rep.Version != obs.ReportVersion {
		bad("version %d, want %d", rep.Version, obs.ReportVersion)
	}
	if rep.Meta.Command == "" {
		bad("meta.command is empty")
	}
	if rep.Meta.Workers < 1 {
		bad("meta.workers %d, want >= 1", rep.Meta.Workers)
	}
	if rep.WallNS <= 0 {
		bad("wall_ns %d, want > 0", rep.WallNS)
	}
	if rep.Metrics.Counters == nil || rep.Metrics.Gauges == nil {
		bad("metrics snapshot is missing counter/gauge maps")
	}
	for name, v := range rep.Metrics.Counters {
		if v < 0 {
			bad("counter %s is negative: %d", name, v)
		}
	}
	// The report is written after the run quiesces, so each histogram's
	// buckets must exactly account for its count, in ascending bound order.
	for name, h := range rep.Metrics.Histograms {
		var inBuckets int64
		prev := int64(-1)
		for _, b := range h.Buckets {
			inBuckets += b.Count
			if b.Count <= 0 {
				bad("histogram %s has empty bucket le=%d", name, b.Le)
			}
			if b.Le <= prev {
				bad("histogram %s buckets not in ascending le order", name)
			}
			prev = b.Le
		}
		if inBuckets != h.Count {
			bad("histogram %s buckets sum to %d, count is %d", name, inBuckets, h.Count)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"trace_cache_hit_rate", rep.Derived.TraceCacheHitRate},
		{"store_hit_rate", rep.Derived.StoreHitRate},
		{"worker_utilization", rep.Derived.WorkerUtilization},
	} {
		if r.v < 0 || r.v > 1 {
			bad("derived %s %.4f outside [0, 1]", r.name, r.v)
		}
	}
	if rep.Derived.KernelExecutions < 0 {
		bad("derived kernel_executions is negative: %d", rep.Derived.KernelExecutions)
	}
	if rep.Derived.CodecEncodes < 0 {
		bad("derived codec_encodes is negative: %d", rep.Derived.CodecEncodes)
	}
	// Worker utilization must be real whenever the pool ran: par.ForEach
	// times every path (including the single-core inline one), so a report
	// with busy time but a zero ratio means the accounting broke again —
	// the pr8 records carried worker_utilization: 0 for exactly that gap.
	if busy := rep.Metrics.Counters["par.worker.busy_ns"]; busy > 0 && rep.Derived.WorkerUtilization <= 0 {
		bad("worker pool was busy %d ns but derived worker_utilization is %.4f, want > 0", busy, rep.Derived.WorkerUtilization)
	}
	if _, ok := rep.Metrics.Counters["par.worker.busy_ns"]; !ok && rep.Meta.Command == "run" {
		bad("run report has no par.worker.busy_ns counter: worker accounting never reached the registry")
	}

	if *warm {
		hits := rep.Metrics.Counters[obs.PrefixTraceStore+"hits"]
		if hits <= 0 {
			bad("warm run loaded nothing from the trace store (%d hits)", hits)
		}
		if rep.Derived.StoreHitRate != 1 {
			bad("warm store hit rate %.4f, want 1.0", rep.Derived.StoreHitRate)
		}
		if rep.Derived.KernelExecutions != 0 {
			bad("warm run executed %d kernels, want 0", rep.Derived.KernelExecutions)
		}
		// An explore prices only the targets, whose video kernels encode
		// the clip only when they record; `run all` still encodes it once
		// for the hardware-codec figures.
		if rep.Meta.Command == "explore" && rep.Derived.CodecEncodes != 0 {
			bad("warm explore encoded %d clips, want 0", rep.Derived.CodecEncodes)
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "checkreport: %s: %s\n", path, p)
		}
		os.Exit(1)
	}
	mode := "report"
	if *warm {
		mode = "warm report"
	}
	fmt.Fprintf(os.Stderr, "checkreport: %s: valid %s (v%d, %s, %d counters, %d histograms)\n",
		path, mode, rep.Version, rep.Meta.Command, len(rep.Metrics.Counters), len(rep.Metrics.Histograms))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkreport: "+format+"\n", args...)
	os.Exit(1)
}

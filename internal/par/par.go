// Package par provides the bounded worker pool used to parallelize the
// experiment pipeline. All fan-out in this codebase follows one rule: each
// unit of work owns its model state (mem.Space, cache.Hierarchy, energy
// accumulators) and writes only to its own index of a result slice, so a
// parallel run computes bit-identical results to a serial one.
//
// Workers(0) resolves to GOMAXPROCS, and ForEach/Map with workers <= 1 run
// inline in index order — that degenerate case IS the serial reference
// path, not an approximation of it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
)

// obsReg is the registry worker busy/idle time is reported to, nil (no
// accounting at all) by default. Package-level because ForEach call sites
// are spread across the tree and threading a registry through each would
// dwarf the feature; an atomic pointer keeps SetObs safe at any time.
var obsReg atomic.Pointer[obs.Registry]

// SetObs directs worker-utilization metrics (par.worker.busy_ns /
// par.worker.idle_ns) at r; nil turns accounting off. The inline serial
// path is timed too (busy only — one worker never idles), so a run on a
// single-core host (where ForEach degrades to the inline path) still
// reports a real, nonzero utilization instead of the 0/0 ratio the pr8
// bench records carried. Timing never feeds results: the serial path's
// output stays bit-identical with accounting on or off.
func SetObs(r *obs.Registry) { obsReg.Store(r) }

// Workers resolves a worker-count override: values > 0 are used as given,
// anything else (0 or negative) means GOMAXPROCS.
func Workers(override int) int {
	if override > 0 {
		return override
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines (capped at GOMAXPROCS: extra goroutines cannot run
// concurrently anyway and their scheduling overhead is measurable).
// Workers take one index at a time from a shared counter, so no two
// items are tied to one worker: every caller's items take milliseconds
// (experiments, targets, replay units, lint cells), and the longest ones
// must be free to run side by side rather than back to back. With
// workers <= 1 (or n == 1) it runs inline, in index order, on the calling
// goroutine.
//
// A panic in fn propagates to the caller after all workers have stopped,
// matching the behaviour of the same panic in a serial loop.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	// Goroutines beyond the schedulable parallelism can't run concurrently;
	// they only add scheduler handoffs (BenchmarkParMap showed workers=8
	// trailing workers=1 on a single-core host for exactly this reason), so
	// cap at GOMAXPROCS — on one core that lands in the inline serial path.
	// Capping changes nothing about results: each index still writes only
	// its own slot, so any worker count is bit-identical.
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers <= 1 || n == 1 {
		if reg := obsReg.Load(); reg != nil {
			busy := reg.Counter("par.worker.busy_ns")
			t0 := obs.Now()
			for i := 0; i < n; i++ {
				fn(i)
			}
			busy.Add(obs.Since(t0))
			return
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	// Resolve the utilization counters once per ForEach, not per item: when
	// observability is off (the default) workers pay a single nil check, and
	// when it is on the hot loop does two clock reads per item plus a local
	// add — the shared counters are only touched once per worker, at exit.
	var busyCtr, idleCtr *obs.Counter
	if reg := obsReg.Load(); reg != nil {
		busyCtr = reg.Counter("par.worker.busy_ns")
		idleCtr = reg.Counter("par.worker.idle_ns")
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicOne sync.Once
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var workerStart, busyNS int64
			if busyCtr != nil {
				workerStart = obs.Now()
				defer func() {
					busyCtr.Add(busyNS)
					idleCtr.Add(obs.Since(workerStart) - busyNS)
				}()
			}
			defer func() {
				if r := recover(); r != nil {
					panicOne.Do(func() { panicked = r })
					// Drain remaining indices so sibling workers exit
					// promptly instead of starting doomed work.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if busyCtr != nil {
					t0 := obs.Now()
					fn(i)
					busyNS += obs.Since(t0)
					continue
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn(i) for every i in [0, n) on a bounded pool and collects the
// results into an index-addressed slice: out[i] is always fn(i), whatever
// order the pool ran them in.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

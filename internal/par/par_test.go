package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gopim/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-1); got != want {
		t.Errorf("Workers(-1) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out := Map(workers, 50, func(i int) int { return i * i })
		if len(out) != 50 {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Error("ForEach ran fn for n <= 0")
	}
}

func TestSerialPathIsInOrder(t *testing.T) {
	var order []int
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

// TestForEachCapsWorkersAtGOMAXPROCS pins the oversubscription fix: with
// one schedulable core, any worker count degenerates to the inline serial
// path, observable through its in-order execution guarantee.
func TestForEachCapsWorkersAtGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var order []int
	ForEach(8, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("capped ForEach not inline/in order: %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10 indices", len(order))
	}
}

// TestForEachLastItemsRunConcurrently pins one-index-at-a-time dispatch:
// with two workers, the last two of 18 items must be able to run at the
// same time. Each waits for the other at a rendezvous; handing out indices
// in chunks of two put both on one worker, back to back, and the first of
// them timed out waiting for a partner that could not start.
func TestForEachLastItemsRunConcurrently(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	const n = 18
	meet := make(chan struct{})
	var missed atomic.Int32
	ForEach(2, n, func(i int) {
		if i < n-2 {
			return
		}
		select {
		case meet <- struct{}{}:
		case <-meet:
		case <-time.After(5 * time.Second):
			missed.Add(1)
		}
	})
	if m := missed.Load(); m != 0 {
		t.Fatalf("%d of the last two items waited alone: they ran back to back on one worker", m)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			ForEach(workers, 100, func(i int) {
				if i == 42 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForEachWorkerAccounting pins the utilization metrics on both paths:
// with a registry attached and enough schedulable parallelism to escape the
// inline path, every worker reports busy time; and the inline serial path
// (GOMAXPROCS=1) reports busy time too — no idle — so a single-core run
// derives utilization 1 instead of the 0/0 ratio pr8's bench recorded.
func TestForEachWorkerAccounting(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	reg := obs.NewRegistry()
	SetObs(reg)
	defer SetObs(nil)

	var sum atomic.Int64
	ForEach(4, 64, func(i int) {
		acc := 0
		for j := 0; j < 20000; j++ {
			acc += j ^ i
		}
		sum.Add(int64(acc))
	})

	snap := reg.Snapshot()
	if snap.Counters["par.worker.busy_ns"] <= 0 {
		t.Error("pooled ForEach recorded no busy time")
	}
	if snap.Counters["par.worker.idle_ns"] < 0 {
		t.Error("negative idle time")
	}

	runtime.GOMAXPROCS(1)
	ForEach(4, 16, func(i int) {
		acc := 0
		for j := 0; j < 20000; j++ {
			acc += j ^ i
		}
		sum.Add(int64(acc))
	})
	after := reg.Snapshot()
	if after.Counters["par.worker.busy_ns"] <= snap.Counters["par.worker.busy_ns"] {
		t.Error("inline serial path recorded no busy time")
	}
	if after.Counters["par.worker.idle_ns"] != snap.Counters["par.worker.idle_ns"] {
		t.Error("inline serial path recorded idle time (one worker never idles)")
	}
	_ = sum.Load()
}

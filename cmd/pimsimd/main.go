// Command pimsimd serves gopim simulations as a service: a long-lived
// process holding one warm trace.Cache (optionally backed by the
// persistent content-addressed store) that many clients submit sweep jobs
// against over HTTP/JSON. Where `pimsim run` pays the kernel-execution
// cost per process, pimsimd pays it once per unique kernel across all
// tenants: identical sweep cells from concurrent requests coalesce onto
// one in-flight computation (internal/serve's single-flight memo), and
// completed cells are served from memory.
//
// The wire contract is determinism: a job's result bytes are identical to
// the matching `pimsim run`/`pimsim explore` stdout for the same spec —
// scripts/check.sh gates the byte-for-byte diff. Admission is bounded: a
// fixed job-runner pool, a bounded queue, and 429 when the queue is full.
//
//	pimsimd -addr 127.0.0.1:7077
//	curl -s -X POST localhost:7077/jobs -d '{"kind":"run","experiments":["fig1"]}'
//	curl -s localhost:7077/jobs/job-1/result
//
// Endpoints: POST /jobs, GET /jobs, GET /jobs/{id}[/result|/stream],
// DELETE /jobs/{id}, GET /metrics, GET /healthz. SIGINT/SIGTERM shut down
// gracefully: stop admitting, drain in-flight jobs, flush store writes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"gopim/internal/obs"
	"gopim/internal/par"
	"gopim/internal/serve"
	"gopim/internal/trace"
	"gopim/internal/vp9"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen `host:port` (port 0 picks a free port)")
	storeFlag := flag.String("tracestore", "auto", "persistent trace store: auto, off, or a `directory`")
	jobWorkers := flag.Int("job-workers", 2, "concurrent job runners")
	workers := flag.Int("workers", 0, "worker bound inside each job's sweep (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 16, "admission queue capacity (full queue = HTTP 429)")
	memoLimit := flag.Int("memo-limit", 256, "completed sweep cells retained for reuse")
	cacheLimit := flag.Int64("cache-limit", 0, "trace cache budget in bytes (0 = unbounded)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pimsimd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	cache := trace.NewCache()
	cache.Store = openStore(*storeFlag)
	if *cacheLimit > 0 {
		cache.Limit = *cacheLimit
	}

	reg := obs.NewRegistry()
	par.SetObs(reg)
	defer par.SetObs(nil)
	vp9.SetObs(reg)
	defer vp9.SetObs(nil)

	srv := serve.NewServer(serve.Config{
		JobWorkers: *jobWorkers,
		Workers:    *workers,
		QueueCap:   *queueCap,
		MemoLimit:  *memoLimit,
		Traces:     cache,
		Reg:        reg,
	})
	api, err := serve.ServeAPI(*addr, srv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimsimd: %v\n", err)
		os.Exit(1)
	}
	store := "off"
	if cache.Store != nil {
		store = cache.Store.Dir()
	}
	fmt.Fprintf(os.Stderr, "pimsimd: serving on http://%s (trace store: %s, job workers: %d, queue: %d)\n",
		api.Addr(), store, *jobWorkers, *queueCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "pimsimd: shutting down: draining in-flight jobs")
	// API first (no new requests), then the job engine (drains admitted
	// jobs and flushes pending store writes).
	if err := api.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "pimsimd: api close: %v\n", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "pimsimd: drained")
}

// openStore resolves and opens the persistent trace store, mirroring
// pimsim's -tracestore semantics: auto prefers $GOPIM_TRACE_DIR, then the
// user cache dir; an unusable auto store degrades to none (the store is
// an optimization), an explicit one must open.
func openStore(flagVal string) *trace.Store {
	var dir string
	switch flagVal {
	case "off":
		return nil
	case "auto":
		dir = os.Getenv("GOPIM_TRACE_DIR")
		if dir == "" {
			base, err := os.UserCacheDir()
			if err != nil {
				return nil
			}
			dir = filepath.Join(base, "gopim", "traces")
		}
	default:
		dir = flagVal
	}
	st, err := trace.OpenStore(dir)
	if err != nil {
		if flagVal != "auto" {
			fmt.Fprintf(os.Stderr, "pimsimd: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pimsimd: trace store disabled: %v\n", err)
		return nil
	}
	return st
}

// Command spidersimd is the multi-tenant simulation service: a
// stdlib-only net/http daemon serving concurrent scenario sessions from
// a warm pool of engine/fabric instances, with a fingerprint-keyed
// cost-aware result cache and bounded-admission backpressure. The cache
// evicts by GreedyDual on each report's run time: the reports costliest
// to recompute (chaos campaigns, sweeps) outlive cheap ones, and every
// entry ages out eventually.
//
//	spidersimd -addr :8080 -seed 42 -pool 2 -workers 2 -queue 64 -cache 128
//
// Submit a session and follow it:
//
//	curl -s -X POST localhost:8080/v1/sessions \
//	     -d '{"kind":"workload","seed":7}'
//	curl -s localhost:8080/v1/sessions/s-000001/events   # ndjson stream
//	curl -s localhost:8080/v1/sessions/s-000001/report
//
// The determinism contract: a session's report — fingerprint included —
// is byte-identical to `spidersim session -spec '<the same json>'`, no
// matter how many tenants share the daemon or whether the session ran
// on a cold, pooled, or cached path. When the admission queue is full
// the daemon sheds immediately with 429 and a Retry-After hint; it
// never queues unboundedly. Nor does it keep every session: once 1,024
// newer sessions have finished, a finished session's endpoints answer
// 404, and resubmitting its spec gets the report from the result cache.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"spiderfs/internal/experiment"
	"spiderfs/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("spidersimd", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":8080", "listen address")
	seed := flags.Uint64("seed", 42, "service-plane seed: session tokens only (every model stream, sweeps included, comes from each spec's own seed)")
	workers := flags.Int("workers", 2, "concurrent session executors")
	queue := flags.Int("queue", 64, "admission queue depth; submits past it are shed with 429")
	pool := flags.Int("pool", 2, "warm engine/fabric instances retained per shape (0 = always cold)")
	cache := flags.Int("cache", 128, "result cache entries, evicting the cheapest to recompute first (0 = disabled)")
	prewarm := flags.Bool("prewarm", true, "build the warm pool before listening")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers < 1 || *queue < 1 || *pool < 0 || *cache < 0 {
		fmt.Fprintln(stderr, "spidersimd: -workers and -queue must be at least 1, -pool and -cache at least 0")
		return 2
	}

	svc := serve.New(serve.Config{
		Seed:       *seed,
		Workers:    *workers,
		QueueDepth: *queue,
		PoolSize:   *pool,
		CacheSize:  *cache,
		Sweeps:     experiment.Sweeps(),
		Clock:      func() int64 { return time.Now().UnixNano() },
	})
	defer svc.Close()
	if *prewarm && *pool > 0 {
		svc.Prewarm(*pool, false)
	}

	fmt.Fprintf(stdout, "spidersimd listening on %s (workers %d, queue %d, pool %d, cache %d)\n",
		*addr, *workers, *queue, *pool, *cache)
	if err := http.ListenAndServe(*addr, svc.Handler()); err != nil {
		fmt.Fprintln(stderr, "spidersimd:", err)
		return 1
	}
	return 0
}

// Command vpserve serves the experiment registry over HTTP: any table or
// figure of the paper's evaluation, rendered on demand and shared across
// clients through one warm trace store.
//
// Usage:
//
//	vpserve [-addr 127.0.0.1:8080] [-max-concurrent 4] [-workers 0]
//	        [-timeout 2m] [-cache 64] [-cache-dir DIR] [-disk-cache-entries 512]
//	        [-job-retention 256] [-job-queue 64] [-shard n/m]
//	        [-max-tracelen 2000000] [-max-seeds 16] [-drain-timeout 30s]
//	        [-events log.jsonl] [-pprof]
//
// Endpoints (see DESIGN.md §11/§14 and the README "Serving" walkthrough):
//
//	GET  /healthz                 liveness (503 while draining)
//	GET  /v1/experiments          JSON list of experiment ids
//	GET  /v1/experiments/{id}     run/serve one experiment
//	     ?seed=1&tracelen=200000&seeds=1&workloads=go,gcc&format=text
//	POST /v1/jobs?experiment=id&… submit the same run asynchronously
//	GET  /v1/jobs                 list tracked jobs
//	GET  /v1/jobs/{job}           poll one job (live progress while running)
//	GET  /v1/jobs/{job}/result    fetch the settled result (?format=…)
//	POST /v1/merge                merge shard artifacts into full tables
//	GET  /v1/metrics              metrics snapshot (text, or ?format=json)
//	GET  /v1/progress             live cell-grid progress + running jobs
//	GET  /metrics                 Prometheus text exposition (for scrapers)
//	GET  /debug/pprof/            net/http/pprof (only with -pprof)
//
// -events appends the structured JSON event log (request, simulation and
// cell lifecycle, each line stamped with its request's span id) to a file;
// "-" writes it to stderr. Invalid flag values (negative timeouts,
// -workers -1, an unwritable -cache-dir, a malformed -shard, ...) exit 2
// with the usage text.
//
// Every distinct run is one job keyed by its canonical parameters:
// identical concurrent requests coalesce onto it, and a job submitted via
// POST /v1/jobs keeps running if its client disconnects — the result
// stays fetchable by id until -job-retention evicts it. Completed tables
// are cached in a bounded LRU and, with -cache-dir, in a persistent
// on-disk store that survives restarts and can be shared between replicas
// pointing at the same directory. Synchronous saturation is shed with 429
// + Retry-After (async submissions queue up to -job-queue deep), and slow
// runs end in 504 at -timeout.
//
// -shard n/m pins this replica to the n-th of m deterministic partitions
// of the workload axis: normal formats render the partial table, while
// format=shard returns the artifact that vpsim -merge or POST /v1/merge
// recombines byte-identically to the unsharded run (DESIGN.md §14).
//
// Two knobs bound the service's parallelism independently:
// -max-concurrent admits jobs, while -workers sets the width of the
// process-global simulation pool every admitted experiment's cells share
// (default GOMAXPROCS), so total CPU use is never requests × workloads.
// On SIGTERM or SIGINT the server drains: the health check starts
// failing, new simulations are refused, in-flight requests complete (up
// to -drain-timeout), then the process exits; a second deadline overrun
// aborts the remaining simulations through their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"valuepred"
	"valuepred/internal/serve"
)

// errUsage marks a command-line validation failure. main reports it like
// any other error but exits 2 (the conventional usage-error status), so
// scripts can tell a bad invocation from a runtime failure.
var errUsage = errors.New("invalid usage")

// usagef prints the flag set's usage text and returns a friendly
// validation error carrying errUsage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, signals, nil); err != nil {
		fmt.Fprintln(os.Stderr, "vpserve:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run starts the service and blocks until the listener fails or a signal
// arrives. onReady, when non-nil, receives the bound address once the
// listener is up (the tests bind :0 and need the real port).
func run(args []string, stdout, stderr io.Writer, signals <-chan os.Signal, onReady func(addr string)) error {
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		maxConcurrent = fs.Int("max-concurrent", serve.DefaultMaxConcurrent, "max simultaneous simulations; beyond it requests get 429 + Retry-After")
		timeout       = fs.Duration("timeout", serve.DefaultTimeout, "per-simulation timeout; an expired run returns 504")
		cacheEntries  = fs.Int("cache", serve.DefaultCacheEntries, "completed-table LRU capacity (entries)")
		cacheDir      = fs.String("cache-dir", "", "persistent table cache directory (empty = disabled); survives restarts, shareable between replicas")
		diskEntries   = fs.Int("disk-cache-entries", serve.DefaultDiskCacheEntries, "on-disk cache capacity (entries), evicted oldest-first")
		jobRetention  = fs.Int("job-retention", 0, "settled jobs kept for result fetches (0 = the library default)")
		jobQueue      = fs.Int("job-queue", 0, "async jobs waiting for a slot before POST /v1/jobs sheds with 429 (0 = the library default)")
		shardSpec     = fs.String("shard", "", "serve shard n/m of the workload axis (empty = unsharded); format=shard returns the mergeable artifact")
		maxTraceLen   = fs.Int("max-tracelen", serve.DefaultMaxTraceLen, "largest per-request tracelen accepted")
		maxSeeds      = fs.Int("max-seeds", serve.DefaultMaxSeeds, "largest per-request seeds accepted, merges included")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		workers       = fs.Int("workers", 0, "simulation worker-pool width shared by all requests (0 = GOMAXPROCS)")
		eventsOut     = fs.String("events", "", "write the structured JSON event log to this file (\"-\" = stderr)")
		pprofOn       = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service's own mux")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: the usage text has been printed; exit 0
		}
		return fmt.Errorf("%w: %s", errUsage, err)
	}
	if fs.NArg() > 0 {
		return usagef(fs, "unexpected arguments %v", fs.Args())
	}
	if *timeout < 0 {
		return usagef(fs, "-timeout must be >= 0 (0 = the %s default), have %s", serve.DefaultTimeout, *timeout)
	}
	if *drainTimeout < 0 {
		return usagef(fs, "-drain-timeout must be >= 0, have %s", *drainTimeout)
	}
	if *workers < 0 {
		return usagef(fs, "-workers must be >= 0 (0 = GOMAXPROCS), have %d", *workers)
	}
	if *diskEntries < 0 {
		return usagef(fs, "-disk-cache-entries must be >= 0 (0 = the %d default), have %d", serve.DefaultDiskCacheEntries, *diskEntries)
	}
	if *jobRetention < 0 {
		return usagef(fs, "-job-retention must be >= 0 (0 = the library default), have %d", *jobRetention)
	}
	if *jobQueue < 0 {
		return usagef(fs, "-job-queue must be >= 0 (0 = the library default), have %d", *jobQueue)
	}
	var shard valuepred.Shard
	if *shardSpec != "" {
		var err error
		shard, err = valuepred.ParseShard(*shardSpec)
		if err != nil {
			return usagef(fs, "-shard: %v", err)
		}
	}
	prevWorkers := valuepred.SetWorkers(*workers)
	defer valuepred.SetWorkers(prevWorkers)

	var events *valuepred.EventLog
	if *eventsOut == "-" {
		events = valuepred.NewEventLog(stderr)
	} else if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events = valuepred.NewEventLog(f)
	}

	srv, err := serve.New(serve.Config{
		MaxConcurrent:    *maxConcurrent,
		Timeout:          *timeout,
		CacheEntries:     *cacheEntries,
		MaxTraceLen:      *maxTraceLen,
		MaxSeeds:         *maxSeeds,
		CacheDir:         *cacheDir,
		DiskCacheEntries: *diskEntries,
		JobRetention:     *jobRetention,
		JobQueue:         *jobQueue,
		Shard:            shard,
		EventLog:         events,
		EnablePprof:      *pprofOn,
	})
	if err != nil {
		// Construction fails only on bad configuration (an unwritable
		// -cache-dir, a malformed -shard): a usage error, exit 2.
		return usagef(fs, "%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "vpserve: listening on http://%s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-signals:
		fmt.Fprintf(stderr, "vpserve: %v: draining (up to %s)\n", sig, *drainTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// The drain deadline expired with requests still in flight:
			// abort their simulations and drop the connections.
			srv.Close()
			if cerr := hs.Close(); cerr != nil && !errors.Is(cerr, http.ErrServerClosed) {
				return fmt.Errorf("drain timed out (%w); force close: %v", err, cerr)
			}
			return fmt.Errorf("drain timed out: %w", err)
		}
		srv.Close()
		fmt.Fprintln(stderr, "vpserve: drained")
		return nil
	}
}

// Command arserved is the simulation-as-a-service daemon: an HTTP/JSON
// front end over the Active-Routing simulator with a content-addressed
// result cache, singleflight de-duplication and one shared worker budget
// for every kind of request.
//
// Usage:
//
//	arserved -addr :8080                 # serve with GOMAXPROCS workers
//	arserved -addr :8080 -workers 4
//	arserved -addr :8080 -store /var/lib/arserved
//
// With -store, every computed result is persisted to a crash-safe
// append-only store and warm-loaded at the next boot, so a restarted
// daemon serves its whole history as cache hits without re-simulating.
// With -snapshots, prefix-shared sweep checkpoints persist the same way:
// a repeated study warm-starts its family leaders from disk instead of
// re-simulating their shared prefixes.
//
// Endpoints:
//
//	POST /run           {"workload":"mac","scheme":"ARF-tid","scale":"tiny"}
//	POST /sweep         {"study":"flowtable","scale":"tiny"}
//	GET  /figures/{id}  e.g. /figures/5.1a?scale=tiny
//	GET  /healthz       liveness probe
//	GET  /stats         cache hit rate, in-flight jobs, queue depth
//
// On SIGTERM/SIGINT the daemon drains gracefully: the listener closes, new
// connections are refused, in-flight requests (including their running
// simulations) complete, then the process exits. A second signal, or the
// drain deadline expiring, aborts immediately.
//
// Cluster mode (DESIGN.md "Cluster & supervision"): the same binary runs
// as a coordinator fronting a worker fleet, or as a worker joining one.
//
//	arserved -mode=coordinator -addr :8090 -store /var/lib/arserved
//	arserved -mode=worker -join http://coord:8090 -addr :8081
//
// The coordinator owns the full HTTP surface and the durable stores, and
// leases each simulation job to a worker; expired leases (crashed,
// partitioned or straggling workers) re-dispatch automatically, and with
// zero live workers the coordinator keeps serving cached results while
// shedding only new-simulation traffic. In coordinator mode -job-timeout
// bounds each lease attempt rather than the whole request. A worker drains
// on SIGTERM: unstarted leases hand back immediately, in-flight
// simulations finish and report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mode := flag.String("mode", "", `process role: "" single-process, "coordinator" dispatches jobs to a worker fleet, "worker" joins a coordinator`)
	join := flag.String("join", "", "worker mode: coordinator base URL, e.g. http://127.0.0.1:8090")
	advertise := flag.String("advertise", "", "worker mode: base URL the coordinator dispatches to (default derives from -addr on 127.0.0.1)")
	workerID := flag.String("worker-id", "", "worker mode: stable worker identity (default hostname-pid); reusing an id after restart expires the old incarnation's leases immediately")
	leaseTTL := flag.Duration("lease-ttl", 0, "coordinator mode: how long a dispatched job lease survives without a renewing worker heartbeat (0 = 10s)")
	heartbeat := flag.Duration("heartbeat", 0, "worker mode: heartbeat interval override (0 = interval the coordinator advertises at registration)")
	chaosJobDelay := flag.Duration("chaos-job-delay", 0, "worker mode: inject this delay before every simulation (chaos testing: slow-worker straggler)")
	workers := flag.Int("workers", 0, "shared simulation worker budget (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
	storeDir := flag.String("store", "", "directory for the crash-safe result store; empty disables persistence")
	snapDir := flag.String("snapshots", "", "directory for the checkpoint store backing prefix-shared sweeps (warm starts across restarts); empty keeps sweep checkpoints in memory only")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none); expired jobs abort and release their worker slots")
	maxQueue := flag.Int("max-queue", 0, "shed new-simulation requests with 503 once this many jobs wait for workers (0 = never shed)")
	flag.Parse()

	switch *mode {
	case "", "coordinator":
	case "worker":
		runWorker(workerConfig{
			addr:      *addr,
			join:      *join,
			advertise: *advertise,
			id:        *workerID,
			workers:   *workers,
			timeout:   *jobTimeout,
			heartbeat: *heartbeat,
			jobDelay:  *chaosJobDelay,
			drain:     *drain,
		})
		return
	default:
		fmt.Fprintf(os.Stderr, "arserved: unknown -mode %q (want \"\", coordinator or worker)\n", *mode)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import
		// time; serve that mux on its own listener so profiling stays off
		// the public API address.
		go func() {
			fmt.Fprintf(os.Stderr, "arserved: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "arserved: pprof:", err)
			}
		}()
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "arserved: opening result store:", err)
			os.Exit(1)
		}
		ss := st.Stats()
		fmt.Fprintf(os.Stderr, "arserved: result store %s (%d records, %d bytes", *storeDir, ss.Records, ss.BytesOnDisk)
		if ss.CorruptRecords > 0 {
			fmt.Fprintf(os.Stderr, ", %d corrupt records quarantined", ss.CorruptRecords)
		}
		fmt.Fprintln(os.Stderr, ")")
	}

	var snaps *store.Store
	if *snapDir != "" {
		var err error
		snaps, err = store.Open(*snapDir, store.Options{SegmentPrefix: "snap"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "arserved: opening snapshot store:", err)
			os.Exit(1)
		}
		ss := snaps.Stats()
		fmt.Fprintf(os.Stderr, "arserved: snapshot store %s (%d checkpoints, %d bytes)\n", *snapDir, ss.Records, ss.BytesOnDisk)
	}

	// Coordinator mode swaps the execution seam: jobs lease out to the
	// worker fleet instead of running in-process, and -job-timeout becomes
	// the per-attempt lease cap (a straggling attempt re-dispatches rather
	// than failing the request).
	var coord *cluster.Coordinator
	svcTimeout := *jobTimeout
	if *mode == "coordinator" {
		coord = cluster.NewCoordinator(cluster.CoordinatorOptions{
			LeaseTTL:       *leaseTTL,
			AttemptTimeout: *jobTimeout,
		})
		defer coord.Close()
		svcTimeout = 0
	}

	svc := service.New(service.Options{
		Workers:    *workers,
		Store:      st,
		JobTimeout: svcTimeout,
		MaxQueue:   *maxQueue,
		Snapshots:  snaps,
		Executor:   executorOrNil(coord),
	})
	mux := http.NewServeMux()
	svc.Register(mux)
	if coord != nil {
		coord.Register(mux)
		fmt.Fprintln(os.Stderr, "arserved: coordinator mode (workers join via /cluster/register)")
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "arserved: listening on %s (workers=%d)\n", *addr, svc.Budget().Cap())

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. port in use).
		fmt.Fprintln(os.Stderr, "arserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "arserved: draining (in-flight requests run to completion)")
	// Draining sheds requests that would start a new simulation while
	// already-cached results keep serving until the listener closes.
	svc.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "arserved: drain aborted:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "arserved:", err)
		os.Exit(1)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arserved: closing result store:", err)
		}
	}
	if snaps != nil {
		if err := snaps.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arserved: closing snapshot store:", err)
		}
	}
	stats := svc.Stats()
	fmt.Fprintf(os.Stderr, "arserved: drained cleanly (served %d sims, %d cache hits, hit rate %.2f)\n",
		stats.SimsCompleted, stats.CacheHits, stats.HitRate)
}

// executorOrNil avoids the typed-nil-in-interface trap: a nil *Coordinator
// must reach service.New as a nil interface so the Local default applies.
func executorOrNil(c *cluster.Coordinator) service.Executor {
	if c == nil {
		return nil
	}
	return c
}

// workerConfig carries the worker-mode flag subset.
type workerConfig struct {
	addr      string
	join      string
	advertise string
	id        string
	workers   int
	timeout   time.Duration
	heartbeat time.Duration
	jobDelay  time.Duration
	drain     time.Duration
}

// runWorker is worker mode's whole main: serve the dispatch surface, join
// the coordinator, and on SIGTERM drain — hand unstarted leases back,
// finish in-flight simulations — before exiting.
func runWorker(cfg workerConfig) {
	if cfg.join == "" {
		fmt.Fprintln(os.Stderr, "arserved: -mode=worker requires -join <coordinator URL>")
		os.Exit(2)
	}
	advertise := cfg.advertise
	if advertise == "" {
		// A bare ":8081" listen address advertises the loopback form; any
		// multi-host deployment must say -advertise explicitly.
		if len(cfg.addr) > 0 && cfg.addr[0] == ':' {
			advertise = "http://127.0.0.1" + cfg.addr
		} else {
			advertise = "http://" + cfg.addr
		}
	}
	id := cfg.id
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		ID:          id,
		Coordinator: cfg.join,
		Advertise:   advertise,
		Workers:     cfg.workers,
		JobTimeout:  cfg.timeout,
		Heartbeat:   cfg.heartbeat,
		JobDelay:    cfg.jobDelay,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arserved:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w.Start(ctx)
	defer w.Stop()

	srv := &http.Server{Addr: cfg.addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "arserved: worker %s on %s (advertising %s, joining %s)\n", id, cfg.addr, advertise, cfg.join)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "arserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "arserved: worker draining (unstarted leases hand back, in-flight simulations finish)")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	w.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "arserved: worker drained")
}

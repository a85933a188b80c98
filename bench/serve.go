package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// requestsPerSecond sizes serve-mixed: the run sends this many requests
// per second of --seconds (about what two clients complete on a 2-CPU
// host). The count is fixed rather than time-bounded so every run leaves the
// same number of results in the service's cache and store.
const requestsPerSecond = 1500

// coldOpsRecorded caps the cold jobs whose digests enter the record: 20
// blocks of the 45 workload × scheme pairs.
const coldOpsRecorded = 900

// coldEvery makes every coldEvery-th request a cold job; the rest repeat
// the hot set.
const coldEvery = 10

// hotSet is the 9 suite workloads × 5 schemes at ScaleTiny with the run's
// seed, the jobs the warm phase computes and the store then serves.
func hotSet(seed uint64) []service.RunRequest {
	var reqs []service.RunRequest
	for _, wl := range append(workload.Benchmarks(), workload.Microbenchmarks()...) {
		for _, sch := range system.Schemes() {
			cfg := config(sch, seed)
			reqs = append(reqs, service.RunRequest{Workload: wl, Scheme: sch.String(), Scale: "tiny", Config: &cfg})
		}
	}
	return reqs
}

// coldJob is cold job c of the run: a hot-set workload and scheme, visited
// in a seeded order that covers all 45 pairs in every block of 45 jobs (so
// every run simulates the same mix), with a fresh Config.Seed and one of
// ARE.OperandBufs or MemNet.LinkBandwidth changed.
func coldJob(hot []service.RunRequest, seed uint64, c int) service.RunRequest {
	block, pos := c/len(hot), c%len(hot)
	base := hot[rand.New(rand.NewPCG(seed, uint64(block))).Perm(len(hot))[pos]]
	rng := rand.New(rand.NewPCG(seed, 1<<32|uint64(c)))
	cfg := *base.Config
	cfg.Seed = rng.Uint64()
	if v := []int{16, 32, 64}[rng.IntN(3)]; c%2 == 0 {
		cfg.ARE.OperandBufs = v
	} else {
		cfg.MemNet.LinkBandwidth = v
	}
	base.Config = &cfg
	return base
}

// serveProbe times the service's layers from the benchmark's side in traced
// runs: a service.Executor that wraps a service.Local per call, and a
// store.FS whose append files time Write and Sync. Untraced runs use neither,
// so they measure the server's own executor and the store's own file system.
type serveProbe struct {
	tr     *tracer
	budget *sweep.Budget

	mu        sync.Mutex
	parent    map[string]int // job key -> request span
	persist   map[string]int // executed job key -> request span, until its record is appended
	queue     []float64      // ms
	exec      []float64      // ms
	execTotal time.Duration
	cycles    uint64
	sims      int
	appends   []float64 // µs
	syncs     []float64 // ms
	written   int64
	// syncParent is the request span of the last append; the store syncs
	// each record right after appending it, under its own lock.
	syncParent int
}

// startMark is the per-call ExecObserver: JobStarted fires once the budget
// slot is held, which ends the queue wait.
type startMark struct{ at time.Time }

func (m *startMark) JobStarted()                    { m.at = time.Now() }
func (m *startMark) JobCompleted(sim.SchedCounters) {}

func (p *serveProbe) Ready() bool { return true }

func (p *serveProbe) Execute(ctx context.Context, job service.Job) (*system.Results, error) {
	mark := &startMark{}
	l := &service.Local{Budget: p.budget, Observer: mark}
	t0 := time.Now()
	r, err := l.Execute(ctx, job)
	t1 := time.Now()
	if mark.at.IsZero() {
		mark.at = t1
	}
	p.mu.Lock()
	parent, ok := p.parent[job.Key()]
	if !ok {
		parent = -1
	}
	p.persist[job.Key()] = parent
	p.sims++
	p.queue = append(p.queue, ms(mark.at.Sub(t0)))
	p.exec = append(p.exec, ms(t1.Sub(mark.at)))
	if err == nil {
		p.execTotal += t1.Sub(mark.at)
		p.cycles += r.Cycles
	}
	p.mu.Unlock()
	p.tr.add("service.queue_wait", parent, t0, mark.at)
	p.tr.add("service.execute", parent, mark.at, t1)
	return r, err
}

type timedFS struct {
	store.FS
	p *serveProbe
}

func (f timedFS) OpenAppend(name string) (store.AppendFile, error) {
	a, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{AppendFile: a, p: f.p}, nil
}

type timedFile struct {
	store.AppendFile
	p *serveProbe
}

// Write attributes the append to the request whose executed job's key the
// record holds; keys are content hashes, so at most one matches.
func (f *timedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := f.AppendFile.Write(b)
	t1 := time.Now()
	p := f.p
	p.mu.Lock()
	p.appends = append(p.appends, float64(t1.Sub(t0))/float64(time.Microsecond))
	p.written += int64(n)
	p.syncParent = -1
	for key, parent := range p.persist {
		if bytes.Contains(b, []byte(key)) {
			p.syncParent = parent
			delete(p.persist, key)
			break
		}
	}
	parent := p.syncParent
	p.mu.Unlock()
	p.tr.add("store.append", parent, t0, t1)
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.AppendFile.Sync()
	t1 := time.Now()
	p := f.p
	p.mu.Lock()
	p.syncs = append(p.syncs, ms(t1.Sub(t0)))
	parent := p.syncParent
	p.mu.Unlock()
	p.tr.add("store.sync", parent, t0, t1)
	return err
}

// httpServer serves handler on a loopback port until stop is called.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(handler http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *httpServer) stop() {
	_ = s.srv.Close()
	<-s.done
}

// clientPair runs two closed-loop clients over one transport; send is
// called with each request index until it returns false.
func clientPair(url string, send func(c *service.Client, lane int) bool) {
	tp := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tp.CloseIdleConnections()
	var wg sync.WaitGroup
	for lane := 1; lane <= 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &service.Client{BaseURL: url, HTTP: &http.Client{Transport: tp}}
			for send(c, lane) {
			}
		}()
	}
	wg.Wait()
}

// runServe is the serve-mixed workload: a service.Server with a durable
// store in a temporary directory, served over loopback HTTP to two
// closed-loop service.Clients. 90% of requests repeat the hot set and read
// through the cache; 10% are unique cold jobs that simulate and then write
// their result to the store with fsync.
func runServe(e *env, res *result) {
	hot := hotSet(e.seed)
	var probe *serveProbe
	storeOpts, opts := store.Options{}, service.Options{Workers: 2}
	if e.tr.on {
		probe = &serveProbe{tr: e.tr, parent: map[string]int{}, persist: map[string]int{}}
		storeOpts.FS, opts.Executor = timedFS{store.OSFS(), probe}, probe
	}

	// Set-up brings up a serving instance: a warm phase computes the hot set
	// into a fresh store through the service, then the service restarts over
	// that store (recovery plus warm load). The last instance serves.
	var setups []float64
	var hotOps []op
	var hotCycles []uint64
	var st *store.Store
	var srv *service.Server
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			_ = st.Close()
			_ = os.RemoveAll(st.Dir())
		}
		runtime.GC()
		t0 := time.Now()
		dir, err := os.MkdirTemp(e.tmpDir, "serve-store-")
		if err != nil {
			res.fail(err)
			return
		}
		ops, err := warmStore(e.ctx, dir, hot)
		if err != nil {
			_ = os.RemoveAll(dir)
			res.fail(fmt.Errorf("warm phase: %w", err))
			return
		}
		sp := e.tr.root("store.open", 0, -1)
		st, err = store.Open(dir, storeOpts)
		e.tr.end(sp)
		if err != nil {
			_ = os.RemoveAll(dir)
			res.fail(fmt.Errorf("restart: %w", err))
			return
		}
		sp = e.tr.root("service.new", 0, -1)
		opts.Store = st
		srv = service.New(opts)
		e.tr.end(sp)
		setups = append(setups, time.Since(t0).Seconds())
		if hotOps == nil {
			hotOps = ops
			for _, o := range ops {
				hotCycles = append(hotCycles, o.Cycles)
			}
		}
		res.check(digest(ops) == digest(hotOps), "warm phase %d: hot-set results differ from the first warm phase's", i)
	}
	defer os.RemoveAll(st.Dir())
	defer st.Close()
	res.ops = append(res.ops, hotOps...)
	if probe != nil {
		probe.budget = srv.Budget()
	}
	loaded := srv.Stats().StoreRecordsLoaded
	res.check(loaded == uint64(len(hot)), "restart loaded %d records, want %d", loaded, len(hot))
	hs, err := serve(srv.Handler())
	if err != nil {
		res.fail(err)
		return
	}
	defer hs.stop()

	var (
		next         atomic.Int64
		mu           sync.Mutex
		cached, cold []float64
		coldTotal    float64 // ms
		cycles       uint64
		coldOps      []op
	)
	requests := e.size.requests
	if requests == 0 {
		requests = int(requestsPerSecond * e.seconds)
	}
	hotOrder := rand.New(rand.NewPCG(e.seed, 0)).Perm(len(hot))
	start := time.Now()
	clientPair(hs.url, func(c *service.Client, lane int) bool {
		k := int(next.Add(1) - 1)
		if k >= requests || e.ctx.Err() != nil {
			return false
		}
		isCold := k%coldEvery == coldEvery-1
		var req service.RunRequest
		var h int
		if isCold {
			req = coldJob(hot, e.seed, k/coldEvery)
		} else {
			h = hotOrder[(k-k/coldEvery)%len(hot)]
			req = hot[h]
		}
		sp := e.tr.root("service.request", lane, k)
		if isCold && probe != nil {
			if key, err := jobKey(req); err == nil {
				probe.mu.Lock()
				probe.parent[key] = sp
				probe.mu.Unlock()
			}
		}
		t0 := time.Now()
		resp, err := c.Run(e.ctx, req)
		lat := ms(time.Since(t0))
		e.tr.end(sp)
		if err == nil {
			err = checkResponse(resp, req, isCold, hotCycles, h)
		}
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("request %d: %w", k, err))
			return true
		}
		if isCold {
			cold = append(cold, lat)
			coldTotal += lat
			cycles += resp.Results.Cycles
			if c := k / coldEvery; c < coldOpsRecorded {
				coldOps = append(coldOps, op{ID: fmt.Sprintf("cold/%04d", c), Cycles: resp.Results.Cycles, Digest: digest(resp.Results)})
			}
			addCounts(res, resp.Results)
		} else {
			cached = append(cached, lat)
		}
		return true
	})
	window := time.Since(start).Seconds()
	res.ops = append(res.ops, sortOps(coldOps)...)

	stats := srv.Stats()
	all := append(append([]float64(nil), cached...), cold...)
	res.e2e["setup_s"] = metric{median(setups), "s"}
	res.e2e["latency_ms"] = metric{median(all), "ms"}
	// Cold requests' simulated cycles per second of their client-side
	// latency: the simulation rate a caller of a fresh job sees.
	res.e2e["sim_cycles_per_s"] = metric{ratio(float64(cycles), coldTotal/1000), "cycles/s"}
	res.layer["service.cache_hits"] = metric{float64(stats.CacheHits), "count"}
	res.layer["service.cache_misses"] = metric{float64(stats.CacheMisses), "count"}
	res.layer["service.store_put_failures"] = metric{float64(stats.StorePutFailures), "count"}
	for name, xs := range map[string][]float64{"cached": cached, "cold": cold} {
		res.details[name+"_p50_ms"] = median(xs)
		res.details[name+"_p99_ms"] = quantile(xs, 0.99)
		res.details[name+"_n"] = float64(len(xs))
	}
	res.details["requests_per_s"] = ratio(float64(len(all)), window)

	if probe == nil {
		res.check(stats.SimsStarted == uint64(len(cold)), "server started %d simulations for %d cold requests", stats.SimsStarted, len(cold))
		return
	}
	// The probe replaces the server's executor, whose observer counts
	// sims_started, so traced runs count simulations at the probe.
	probe.mu.Lock()
	defer probe.mu.Unlock()
	res.layer["sim.ns_per_cycle"] = metric{ratio(float64(probe.execTotal.Nanoseconds()), float64(probe.cycles)), "ns"}
	res.layer["service.sims_started"] = metric{float64(probe.sims), "count"}
	res.layer["store.bytes_written"] = metric{float64(probe.written), "count"}
	res.details["queue_wait_p50_ms"] = median(probe.queue)
	res.details["execute_p50_ms"] = median(probe.exec)
	res.details["execute_p99_ms"] = quantile(probe.exec, 0.99)
	res.details["store_append_p50_us"] = median(probe.appends)
	res.details["store_sync_p50_ms"] = median(probe.syncs)
	res.check(probe.cycles == cycles, "executor simulated %d cycles, clients received %d", probe.cycles, cycles)
	res.check(probe.sims == len(cold), "executor started %d simulations for %d cold requests", probe.sims, len(cold))
}

// jobKey is the service's content address for a request.
func jobKey(req service.RunRequest) (string, error) {
	sch, err := system.ParseScheme(req.Scheme)
	if err != nil {
		return "", err
	}
	scale, err := workload.ParseScale(req.Scale)
	if err != nil {
		return "", err
	}
	j, err := service.Job{Workload: req.Workload, Scheme: sch, Scale: scale, Config: req.Config}.Normalized()
	if err != nil {
		return "", err
	}
	return j.Key(), nil
}

// checkResponse verifies one /run reply: the echo matches the request, a
// hot-set repeat is a cache hit with the warm phase's cycle count, and a
// cold job is a fresh simulation.
func checkResponse(resp *service.RunResponse, req service.RunRequest, isCold bool, hotCycles []uint64, h int) error {
	switch {
	case resp.Results == nil:
		return errors.New("reply has no results")
	case resp.Workload != req.Workload || resp.Scheme != req.Scheme:
		return fmt.Errorf("reply for %s/%s, asked %s/%s", resp.Scheme, resp.Workload, req.Scheme, req.Workload)
	case isCold && resp.CacheHit:
		return fmt.Errorf("cold job %s/%s served from the cache", req.Scheme, req.Workload)
	case !isCold && !resp.CacheHit:
		return fmt.Errorf("hot-set job %s/%s missed the cache", req.Scheme, req.Workload)
	case !isCold && resp.Results.Cycles != hotCycles[h]:
		return fmt.Errorf("hot-set job %s/%s: %d cycles, warm phase had %d", req.Scheme, req.Workload, resp.Results.Cycles, hotCycles[h])
	}
	return nil
}

// warmStore computes the hot set through a fresh service over dir and
// returns one op per hot job, in hot-set order.
func warmStore(ctx context.Context, dir string, hot []service.RunRequest) ([]op, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv := service.New(service.Options{Workers: 2, Store: st})
	hs, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer hs.stop()
	ops := make([]op, len(hot))
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	clientPair(hs.url, func(c *service.Client, _ int) bool {
		i := int(next.Add(1) - 1)
		if i >= len(hot) {
			return false
		}
		resp, err := c.Run(ctx, hot[i])
		if err == nil && (resp.Results == nil || resp.CacheHit) {
			err = fmt.Errorf("%s/%s: not a fresh simulation", hot[i].Scheme, hot[i].Workload)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return false
		}
		ops[i] = op{ID: "hot/" + hot[i].Workload + "/" + hot[i].Scheme, Cycles: resp.Results.Cycles, Digest: digest(resp.Results)}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if st := srv.Stats(); st.StorePutFailures != 0 {
		return nil, fmt.Errorf("%d store writes failed", st.StorePutFailures)
	}
	return ops, nil
}

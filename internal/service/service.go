// Package service is the production serving layer over the gcacc engine
// zoo: a bounded job queue with admission control, a fixed worker pool, a
// content-addressed LRU result cache with in-flight request coalescing,
// a stdlib-only metrics registry, and graceful drain on shutdown.
//
// The design transfers the paper's resource discipline from the machine
// model to the process: just as the simulator's stepping pool
// schedules the (n+1)·n cells onto a fixed set of goroutines with a
// barrier per generation, the service schedules an unbounded request
// stream onto a fixed goroutine budget — p concurrent requests share
// Config.SimWorkers simulator goroutines instead of each spawning
// GOMAXPROCS of their own, and everything beyond the queue bound is
// rejected at admission rather than degrading everyone (the HTTP layer
// maps that rejection to 429).
//
// Requests are content-addressed: the cache key is the canonical
// edge-list fingerprint of the graph (graph.EdgeListHash) plus the
// engine. Identical concurrent requests are coalesced onto one
// computation — every engine is deterministic, so one result serves
// them all, and a key is filled at most once per residency.
//
// The resilience layer (opt-in via Config) handles engine runs that
// fail transiently: bounded retry with exponential backoff and
// deterministic jitter, a per-engine circuit breaker, and graceful
// degradation to the sequential baseline under overload or when a
// breaker is open. Degrading is safe because of the conformance
// contract — every engine labels identically (internal/verify proves
// it) — so a fallback changes provenance and cost, never the answer.
// The chaos tier (internal/fault) drives all of it under seeded fault
// schedules and checks exactly that invariant.
package service

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/sparse"
)

// Admission errors. The HTTP layer maps these onto status codes
// (ErrQueueFull → 429, ErrTooLarge → 413, ErrDenseOnly → 422,
// ErrClosed → 503, the rest 400).
var (
	ErrQueueFull     = errors.New("service: job queue full")
	ErrClosed        = errors.New("service: shutting down")
	ErrTooLarge      = errors.New("service: graph exceeds the admitted vertex cap")
	ErrNilGraph      = errors.New("service: nil graph")
	ErrInvalidEngine = errors.New("service: invalid engine")
	// ErrDenseOnly rejects a dense-only engine for a graph above the
	// dense cutoff (→ 422): the request is well-formed, but the named
	// engine cannot process an input that size — retrying cannot help,
	// switching to a sparse-capable engine can.
	ErrDenseOnly = errors.New("service: engine needs the dense representation")
	// ErrBreakerOpen rejects a job whose engine's circuit breaker is open
	// and no fallback is configured (→ 503).
	ErrBreakerOpen = errors.New("service: engine circuit breaker open")
	// ErrEnginePanic reports an engine run that panicked; the worker
	// recovered and stays alive (→ 500). Panics are not transient: they
	// are never retried and they count against the breaker.
	ErrEnginePanic = errors.New("service: engine panicked")
)

// Config sizes the serving layer. The zero value selects sensible
// defaults for every field.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs;
	// a full queue rejects with ErrQueueFull. <= 0 selects 64.
	QueueDepth int
	// Workers is the number of pool goroutines executing jobs; <= 0
	// selects 2. This bounds concurrent engine runs, not simulator
	// goroutines — see SimWorkers.
	Workers int
	// SimWorkers is the total simulator-goroutine budget shared by the
	// pool: each running job gets SimWorkers/Workers (at least 1), so p
	// concurrent requests cannot oversubscribe the machine the way p
	// independent core.Run calls (each defaulting to GOMAXPROCS) would.
	// <= 0 selects GOMAXPROCS.
	SimWorkers int
	// CacheEntries is the LRU result-cache capacity in entries; 0 selects
	// 256, negative disables caching entirely.
	CacheEntries int
	// DefaultTimeout is applied to jobs whose request context carries no
	// deadline of its own; 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's deadline budget: requests arriving with
	// a longer (or no) deadline are clamped to now+MaxTimeout. 0 means no
	// cap.
	MaxTimeout time.Duration
	// MaxVertices rejects larger graphs at admission; <= 0 selects
	// graph.MaxParseVertices.
	MaxVertices int
	// DenseCutoff rejects dense-only engines (see gcacc.Engine.Sparse)
	// for graphs above this vertex count with ErrDenseOnly — a clear 422
	// instead of the OOM-shaped timeout a (n+1)×n cell field at n ≫ 4096
	// would produce. The edge list is densified only up to
	// gcacc.DenseCutoff, so 0, a negative value or a larger one selects
	// gcacc.DenseCutoff; a smaller value tightens the guardrail.
	DenseCutoff int
	// ExpvarName, if non-empty, publishes the Stats snapshot under this
	// expvar key. Publish once per process: expvar panics on duplicates.
	ExpvarName string

	// Fault, if non-nil, injects its deterministic fault schedule into
	// every non-sequential engine run (see internal/fault). The sequential
	// fallback is never injected — that is what makes degrading to it safe.
	Fault *fault.Injector
	// Clock supplies time for queue-wait measurement, retry backoff and
	// breaker cooldowns; nil selects the wall clock. Tests substitute a
	// fault.FakeClock. Context deadlines remain real time.
	Clock fault.Clock
	// Seed drives the deterministic retry-backoff jitter.
	Seed int64
	// RetryMax is the number of retries (beyond the first attempt) for
	// transient engine failures (fault.IsTransient); 0 disables retry.
	RetryMax int
	// RetryBase is the first backoff delay, doubled per retry; <= 0
	// selects 1ms.
	RetryBase time.Duration
	// RetryCap bounds the backoff delay; <= 0 selects 50ms.
	RetryCap time.Duration
	// BreakerThreshold is the consecutive-failure count that trips an
	// engine's circuit breaker; 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker blocks attempts
	// before letting a half-open probe through; <= 0 selects 500ms.
	BreakerCooldown time.Duration
	// FallbackSequential degrades a job to the sequential engine instead
	// of failing it when its engine's breaker is open.
	FallbackSequential bool
	// DegradeDepth demotes non-sequential jobs to the sequential engine
	// when the queue depth at dequeue is at or beyond this bound — shed
	// simulator load, keep answering. 0 disables overload degradation.
	DegradeDepth int
}

// Request is one unit of admitted work.
type Request struct {
	// Edges is the input graph as an edge list, the one representation
	// the serving layer works on: its fingerprint is the cache key, and
	// dense-only engines densify it at run time (see
	// gcacc.ConnectedComponentsSparse). It must not be mutated while the
	// request is in flight; a canonical edge list (as ReadEdgeStream,
	// FromDense and Fingerprint leave it) is only read, so replicas and
	// retries may share it.
	Edges *sparse.Graph
	// Graph is a dense input for in-process callers that hold one.
	// EdgeList converts it into Edges once with sparse.FromDense and
	// clears it; Submit and cluster.Node.OwnerOf call EdgeList on entry,
	// so no layer below them reads Graph. Ignored when Edges is set.
	Graph *graph.Graph
	// Engine selects the implementation (default EngineGCA).
	Engine gcacc.Engine
	// NoCache bypasses both cache lookup and fill for this request — the
	// load generator's cold path and the throughput benchmark use it.
	NoCache bool
	// Fault, if non-nil, overrides Config.Fault for this request — the
	// HTTP layer's opt-in chaos mode threads per-request schedules here.
	Fault *fault.Injector
	// FP is the graph's fingerprint when a layer above has already
	// hashed it (routing needs it before the service does); the zero
	// value means "not yet computed". Only in-process callers set it;
	// peer compute and batch calls do not carry it, so an owner reached
	// over HTTP keys the result by the graph it parsed.
	FP [32]byte
}

// EdgeList returns the request's input as an edge list, converting a
// dense Graph input into Edges on first use (and clearing Graph). It
// returns nil when the request carries no graph.
func (r *Request) EdgeList() *sparse.Graph {
	if r.Edges == nil && r.Graph != nil {
		r.Edges = sparse.FromDense(r.Graph)
	}
	r.Graph = nil
	return r.Edges
}

// Fingerprint returns the graph's fingerprint, hashing it only when FP
// is still zero and storing the result there, so a request passed on
// after this call carries its key and no layer below rehashes it.
func (r *Request) Fingerprint() [32]byte {
	if r.FP == ([32]byte{}) {
		r.FP = r.EdgeList().Fingerprint()
	}
	return r.FP
}

// Result is what a caller gets back. Labels is the caller's own copy.
type Result struct {
	Labels      []int  `json:"labels"`
	Components  int    `json:"components"`
	Engine      string `json:"engine"`
	Generations int    `json:"generations,omitempty"`
	PRAMSteps   int    `json:"pram_steps,omitempty"`
	// Cached reports a result served from the LRU without any engine run.
	Cached bool `json:"cached"`
	// Coalesced reports a result served by joining an identical in-flight
	// computation.
	Coalesced bool `json:"coalesced"`
	// Degraded reports that the service answered with the sequential
	// fallback instead of the requested engine (overload or open
	// breaker). The labels are identical by the conformance contract;
	// degraded results are never cached under the requested engine's key.
	Degraded bool `json:"degraded,omitempty"`
	// Retries is the number of transient-failure retries behind this
	// result.
	Retries int `json:"retries,omitempty"`
	// Wait is the queue latency (admission → worker pickup) of the run
	// that produced this result; zero for cache hits.
	Wait time.Duration `json:"wait_ns"`
	// Run is the engine execution time of the run that produced this
	// result; zero for cache hits.
	Run time.Duration `json:"run_ns"`
}

// forCaller returns a caller-owned copy of r with per-request provenance.
func (r *Result) forCaller(cached, coalesced bool) *Result {
	cp := *r
	cp.Labels = append([]int(nil), r.Labels...)
	cp.Cached = cached
	cp.Coalesced = coalesced
	return &cp
}

// flight is one in-progress computation; followers with the same key
// block on done instead of enqueueing duplicate work.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// job is a queued unit of work.
type job struct {
	ctx        context.Context
	cancel     context.CancelFunc // non-nil when a timeout budget was applied
	req        Request
	key        cacheKey
	useCache   bool
	enqueuedAt time.Time
	fl         *flight
}

// Service is the serving layer. Create with New, stop with Close.
type Service struct {
	cfg       Config
	simPerJob int
	queue     chan *job
	metrics   serviceMetrics
	wg        sync.WaitGroup
	clock     fault.Clock

	// breakers maps each breakable engine to its circuit breaker; nil
	// when breakers are disabled. Immutable after New; the sequential
	// engine deliberately has no entry.
	breakers map[gcacc.Engine]*breaker
	// jitterN orders the deterministic backoff-jitter draws.
	jitterN atomic.Uint64

	mu       sync.Mutex
	cache    *lruCache // nil when caching is disabled; guarded by mu
	inflight map[cacheKey]*flight
	closed   bool

	// testHookJobRunning, if set before the first Submit, is called by a
	// worker after dequeue and before the engine runs. Test-only.
	testHookJobRunning func(*job)
}

// New starts the worker pool and returns the service.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = graph.MaxParseVertices
	}
	if cfg.DenseCutoff <= 0 || cfg.DenseCutoff > gcacc.DenseCutoff {
		cfg.DenseCutoff = gcacc.DenseCutoff
	}
	if cfg.Clock == nil {
		cfg.Clock = fault.RealClock()
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 50 * time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	s := &Service{
		cfg:      cfg,
		clock:    cfg.Clock,
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: make(map[cacheKey]*flight),
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = make(map[gcacc.Engine]*breaker)
		for _, e := range gcacc.Engines() {
			if e == gcacc.EngineSequential {
				continue // the fallback of last resort is unbreakered
			}
			s.breakers[e] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, s.clock)
		}
	}
	s.simPerJob = cfg.SimWorkers / cfg.Workers
	if s.simPerJob < 1 {
		s.simPerJob = 1
	}
	if cfg.CacheEntries > 0 {
		s.cache = newLRUCache(cfg.CacheEntries)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.ExpvarName != "" {
		expvar.Publish(cfg.ExpvarName, expvar.Func(func() any { return s.Stats() }))
	}
	return s
}

// Config returns the resolved configuration (defaults applied).
func (s *Service) Config() Config { return s.cfg }

// Submit admits, executes (or cache-serves) one request and blocks until
// its result is available or ctx is done. Rejections are immediate:
// ErrQueueFull when the queue is at capacity, ErrClosed after Close has
// begun, ErrTooLarge/ErrNilGraph/ErrInvalidEngine/ErrDenseOnly for
// inadmissible requests.
func (s *Service) Submit(ctx context.Context, req Request) (*Result, error) {
	s.metrics.submitted.Inc()
	g := req.EdgeList()
	if g == nil {
		s.metrics.rejectedInvalid.Inc()
		return nil, ErrNilGraph
	}
	if !req.Engine.Valid() {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: %d", ErrInvalidEngine, int(req.Engine))
	}
	if g.N() > s.cfg.MaxVertices {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: %d vertices, cap %d", ErrTooLarge, g.N(), s.cfg.MaxVertices)
	}
	if !req.Engine.Sparse() && g.N() > s.cfg.DenseCutoff {
		s.metrics.rejectedInvalid.Inc()
		return nil, fmt.Errorf("%w: engine %q cannot process %d vertices (dense cutoff %d); use a sparse-capable engine (e.g. liutarjan, logdiameter, sequential)",
			ErrDenseOnly, req.Engine, g.N(), s.cfg.DenseCutoff)
	}
	if err := ctx.Err(); err != nil {
		// A zero-budget deadline is rejected here, before the queue: it
		// never occupies a slot and never reaches a simulator.
		s.metrics.rejectedExpired.Inc()
		return nil, err
	}

	useCache := s.cache != nil && !req.NoCache
	var key cacheKey
	if useCache {
		key = cacheKey{fp: req.Fingerprint(), engine: req.Engine}
	}

	// Admission. Cache lookup, in-flight join and enqueue happen under
	// one lock so that a key is computed at most once per cache
	// residency: a concurrent identical request either hits the cache,
	// joins the flight, or becomes the unique leader.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.rejectedClosed.Inc()
		return nil, ErrClosed
	}
	if useCache {
		if res, ok := s.cache.get(key); ok {
			s.mu.Unlock()
			s.metrics.cacheHits.Inc()
			return res.forCaller(true, false), nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			s.metrics.coalesced.Inc()
			return s.await(ctx, fl)
		}
	}

	// Per-job deadline budget: a request with no deadline of its own gets
	// DefaultTimeout, and MaxTimeout caps everyone — including requests
	// that arrived with a longer deadline. Deadlines are real time even
	// under an injected clock.
	jctx := ctx
	var cancel context.CancelFunc
	budget := time.Duration(0)
	if d, has := ctx.Deadline(); !has {
		budget = s.cfg.DefaultTimeout
		if s.cfg.MaxTimeout > 0 && (budget <= 0 || budget > s.cfg.MaxTimeout) {
			budget = s.cfg.MaxTimeout
		}
	} else if s.cfg.MaxTimeout > 0 && time.Until(d) > s.cfg.MaxTimeout {
		budget = s.cfg.MaxTimeout
	}
	if budget > 0 {
		jctx, cancel = context.WithTimeout(ctx, budget)
	}
	jb := &job{
		ctx:        jctx,
		cancel:     cancel,
		req:        req,
		key:        key,
		useCache:   useCache,
		enqueuedAt: s.clock.Now(),
		fl:         &flight{done: make(chan struct{})},
	}
	select {
	case s.queue <- jb:
	default:
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.metrics.rejectedFull.Inc()
		return nil, ErrQueueFull
	}
	if useCache {
		s.inflight[key] = jb.fl
		s.metrics.cacheMisses.Inc()
	}
	s.mu.Unlock()
	s.metrics.accepted.Inc()
	s.metrics.queueDepth.Add(1)

	return s.await(ctx, jb.fl)
}

// await blocks until the flight resolves or the caller's ctx is done.
// The computation itself keeps running on the worker when the caller
// gives up — other followers may still want its result.
func (s *Service) await(ctx context.Context, fl *flight) (*Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if fl.err != nil {
		return nil, fl.err
	}
	return fl.res.forCaller(fl.res.Cached, fl.res.Coalesced), nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.metrics.queueDepth.Add(-1)
		s.runJob(jb)
	}
}

func (s *Service) runJob(jb *job) {
	wait := s.clock.Now().Sub(jb.enqueuedAt)
	s.metrics.queueWait.Observe(wait)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	res, err := s.executeJob(jb, wait)
	if jb.cancel != nil {
		jb.cancel()
	}

	switch {
	case err == nil:
		s.metrics.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.metrics.canceled.Inc()
	default:
		if errors.Is(err, ErrEnginePanic) {
			s.metrics.enginePanics.Inc()
		}
		s.metrics.failed.Inc()
	}

	// Fill the cache and retire the flight atomically, so the next
	// identical request sees exactly one of: the in-flight entry (join)
	// or the cached result (hit) — never a gap that admits a second run.
	// Degraded results are not cached: they carry the fallback's
	// provenance, and the requested engine should get a real run once the
	// pressure clears.
	if jb.useCache {
		s.mu.Lock()
		if err == nil && !res.Degraded {
			s.metrics.cacheEvictions.Add(int64(s.cache.add(jb.key, res)))
		}
		delete(s.inflight, jb.key)
		s.mu.Unlock()
	}
	jb.fl.res, jb.fl.err = res, err
	close(jb.fl.done)
}

// executeJob runs one dequeued job through the resilience machinery:
// overload degradation, the engine's circuit breaker, the engine run
// itself, and bounded retry of transient failures. A panic anywhere in
// the job (engine or test hook) is contained to ErrEnginePanic — the
// worker goroutine survives.
func (s *Service) executeJob(jb *job, wait time.Duration) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrEnginePanic, p)
		}
	}()
	if s.testHookJobRunning != nil {
		s.testHookJobRunning(jb)
	}
	if cerr := jb.ctx.Err(); cerr != nil {
		return nil, cerr // deadline passed while queued; no engine run
	}

	engine, degraded := jb.req.Engine, false
	if s.cfg.DegradeDepth > 0 && engine != gcacc.EngineSequential &&
		s.metrics.queueDepth.Value() >= int64(s.cfg.DegradeDepth) {
		engine, degraded = gcacc.EngineSequential, true
		s.metrics.degradedOverload.Inc()
	}
	inj := jb.req.Fault
	if inj == nil {
		inj = s.cfg.Fault
	}
	br := s.breakers[engine] // nil for sequential or when breakers are off

	retries := 0
	for attempt := 0; ; attempt++ {
		runEngine, runDegraded, abr := engine, degraded, br
		if abr != nil && !abr.allow() {
			if !s.cfg.FallbackSequential {
				return nil, fmt.Errorf("%w: engine %s", ErrBreakerOpen, engine)
			}
			runEngine, runDegraded, abr = gcacc.EngineSequential, true, nil
			s.metrics.fallbackBreaker.Inc()
		}
		res, err := s.attempt(jb, runEngine, runDegraded, wait, retries, inj)
		if err == nil {
			if abr != nil {
				abr.onSuccess()
			}
			return res, nil
		}
		if abr != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			abr.onFailure()
		}
		if !fault.IsTransient(err) || attempt >= s.cfg.RetryMax {
			return nil, err
		}
		retries++
		s.metrics.retries.Inc()
		if serr := s.clock.Sleep(jb.ctx, s.backoff(attempt)); serr != nil {
			return nil, serr
		}
	}
}

// attempt runs the job once on the given engine. The sequential engine
// is never fault-injected — it is the safety net every fallback lands
// on. A panicking engine is contained here so the breaker sees it as
// one failed attempt.
func (s *Service) attempt(jb *job, engine gcacc.Engine, degraded bool, wait time.Duration, retries int, inj *fault.Injector) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: engine %s: %v", ErrEnginePanic, engine, p)
		}
	}()
	opts := gcacc.Options{Engine: engine, Workers: s.simPerJob}
	if engine != gcacc.EngineSequential {
		opts.Fault = inj
	}
	start := s.clock.Now()
	rep, err := gcacc.ConnectedComponentsSparse(jb.ctx, jb.req.Edges, opts)
	run := s.clock.Now().Sub(start)
	if err != nil {
		return nil, err
	}
	s.metrics.runTime.Observe(run)
	s.metrics.generations.Add(int64(rep.Generations + rep.PRAMSteps))
	return &Result{
		Labels:      rep.Labels,
		Components:  rep.Components,
		Engine:      engine.String(),
		Generations: rep.Generations,
		PRAMSteps:   rep.PRAMSteps,
		Degraded:    degraded,
		Retries:     retries,
		Wait:        wait,
		Run:         run,
	}, nil
}

// jitterSite salts the backoff-jitter decision stream so it cannot
// collide with the injector's own sites for the same seed.
const jitterSite = 0x3b7d

// backoff returns the delay before retry attempt+1: RetryBase doubled
// per attempt, capped at RetryCap, scaled by a deterministic jitter in
// [0.5, 1.0) so coinciding retries decorrelate without a locked rand.
func (s *Service) backoff(attempt int) time.Duration {
	d := s.cfg.RetryCap
	if attempt < 30 {
		if exp := s.cfg.RetryBase << uint(attempt); exp < d {
			d = exp
		}
	}
	j := fault.Uniform01(uint64(s.cfg.Seed)^jitterSite, s.jitterN.Add(1))
	return time.Duration(float64(d) * (0.5 + 0.5*j))
}

// Stats snapshots every metric.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	cacheLen := s.cache.len()
	s.mu.Unlock()
	var breakerOpen, breakerTrips int64
	for _, b := range s.breakers {
		open, trips := b.snapshot()
		if open {
			breakerOpen++
		}
		breakerTrips += trips
	}
	var faults *fault.Counters
	if s.cfg.Fault != nil {
		c := s.cfg.Fault.Counters()
		faults = &c
	}
	m := &s.metrics
	return Stats{
		Workers:          s.cfg.Workers,
		SimWorkersPerJob: s.simPerJob,
		QueueCapacity:    s.cfg.QueueDepth,
		QueueDepth:       m.queueDepth.Value(),
		InFlight:         m.inFlight.Value(),
		Submitted:        m.submitted.Value(),
		Accepted:         m.accepted.Value(),
		RejectedFull:     m.rejectedFull.Value(),
		RejectedInvalid:  m.rejectedInvalid.Value(),
		RejectedClosed:   m.rejectedClosed.Value(),
		RejectedExpired:  m.rejectedExpired.Value(),
		Completed:        m.completed.Value(),
		Failed:           m.failed.Value(),
		Canceled:         m.canceled.Value(),
		Retries:          m.retries.Value(),
		BreakerTrips:     breakerTrips,
		BreakerOpen:      breakerOpen,
		FallbackBreaker:  m.fallbackBreaker.Value(),
		DegradedOverload: m.degradedOverload.Value(),
		EnginePanics:     m.enginePanics.Value(),
		Faults:           faults,
		CacheCapacity:    max(s.cfg.CacheEntries, 0),
		CacheLen:         cacheLen,
		CacheHits:        m.cacheHits.Value(),
		CacheMisses:      m.cacheMisses.Value(),
		CacheEvictions:   m.cacheEvictions.Value(),
		Coalesced:        m.coalesced.Value(),
		Generations:      m.generations.Value(),
		QueueWait:        m.queueWait.Snapshot(),
		RunTime:          m.runTime.Snapshot(),
	}
}

// Close stops admission, drains every queued and in-flight job to
// completion, and waits for the pool to exit. Safe to call twice.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

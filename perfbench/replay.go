package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/congestion"
	"gcacc/internal/core"
	"gcacc/internal/gca"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
	"gcacc/internal/stream"
)

// span is one timed call into a layer. Spans of one replayed request
// share Req; Parent is 0 for a request's top-level spans. Attributes sit
// in a fixed array under constant keys, so recording a span adds no
// garbage to the process whose calls it times.
type span struct {
	ID     int32     `json:"id"`
	Parent int32     `json:"parent"`
	Req    int32     `json:"req"`
	Name   string    `json:"name"`
	Start  int64     `json:"start_ns"`
	End    int64     `json:"end_ns"`
	Attr   [2]spanKV `json:"attr"`
}

type spanKV struct {
	Key string `json:"k,omitempty"`
	Val int64  `json:"v,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// attr is the value recorded under key, 0 when there is none.
func (s *span) attr(key string) int64 {
	for _, a := range s.Attr {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// tracer keeps spans in memory; with on == false every call is a no-op,
// which is the untraced replay trace.overhead_pct compares against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(req, parent int32, name string) int32 {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: t.now()})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	if id != 0 {
		t.spans[id-1].End = t.now()
	}
}

func (t *tracer) dur(id int32) int64 {
	if id == 0 {
		return 0
	}
	return t.spans[id-1].dur()
}

func (t *tracer) set(id int32, key string, v int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	for i := range s.Attr {
		if s.Attr[i].Key == "" || s.Attr[i].Key == key {
			s.Attr[i] = spanKV{key, v}
			return
		}
	}
	panic("span " + s.Name + ": more than two attributes")
}

// submitChildren adds the queue wait and the engine run a service
// reports in its Result (Wait, Run) as child spans at the end of the
// submit span, so the submit's self time is wall − Wait − Run. A cached
// result carries the timings of the run that filled the cache; this
// request waited for and ran nothing.
func (t *tracer) submitChildren(req, parent int32, res *service.Result) {
	if parent == 0 || res.Cached {
		return
	}
	end := t.spans[parent-1].End
	run, wait := int64(res.Run), int64(res.Wait)
	t.spans = append(t.spans,
		span{ID: int32(len(t.spans) + 1), Parent: parent, Req: req, Name: "service.queue_wait", Start: end - run - wait, End: end - run},
		span{ID: int32(len(t.spans) + 2), Parent: parent, Req: req, Name: "gcacc.engine", Start: end - run, End: end})
}

// replyJSON mirrors the labelled success body gca-serve encodes for
// POST /v1/components.
type replyJSON struct {
	N           int    `json:"n"`
	Components  int    `json:"components"`
	Engine      string `json:"engine"`
	Cached      bool   `json:"cached"`
	Coalesced   bool   `json:"coalesced"`
	Generations int    `json:"generations,omitempty"`
	WaitUS      int64  `json:"wait_us"`
	RunUS       int64  `json:"run_us"`
	Labels      []int  `json:"labels,omitempty"`
	Owner       *int   `json:"owner,omitempty"`
	Proxied     bool   `json:"proxied,omitempty"`
}

// replayOp is what one replayed request produced.
type replayOp struct {
	pipeline time.Duration // the handler's calls, probes excluded
	ok       bool
	read     bool
}

// replayer runs one workload's request sequence in process, calling
// each layer's public functions in the order gca-serve's handlers
// compose them. With tracing on it also probes the engine layer:
// core.Run split per generation by its Observer, and sparse.FromDense
// plus sparse.LiuTarjan split per round by BeforeStep.
type replayer struct {
	b       *bench
	tr      *tracer
	engine  gcacc.Engine
	svc     *service.Service
	cluster *inProcessCluster
	reg     *stream.Registry
	oracle  *streamOracle
	enc     bytes.Buffer
	rounds  map[int]int // input index → Liu–Tarjan rounds, must repeat
	checks  []string    // failed paper cross-checks
}

// serviceConfig mirrors gca-serve's service flags for the workload.
func (b *bench) serviceConfig() service.Config {
	cache := 512
	if b.wl.name == "sparse-edgelist" {
		cache = b.sz.sparseCache
	}
	return service.Config{QueueDepth: 256, Workers: 4, CacheEntries: cache,
		DefaultTimeout: 30 * time.Second, MaxVertices: graph.MaxParseVertices}
}

// inProcessCluster is two replicas in proxy mode whose peer calls go
// through HTTPPeer to RegisterPeerHandlers on loopback listeners.
type inProcessCluster struct {
	svcs   [2]*service.Service
	nodes  [2]*cluster.Node
	srvs   [2]*http.Server
	served [2]chan error
	hc     *http.Client
}

func newInProcessCluster(cfg service.Config) (*inProcessCluster, error) {
	c := &inProcessCluster{hc: &http.Client{Transport: &http.Transport{}}}
	var urls [2]string
	for i := range c.nodes {
		c.svcs[i] = service.New(cfg)
		node, err := cluster.NewNode(c.svcs[i], cluster.Config{Self: i, Members: []int{0, 1}, Mode: cluster.ModeProxy})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes[i] = node
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("peer listener: %w", err)
		}
		mux := http.NewServeMux()
		cluster.RegisterPeerHandlers(mux, node, 64<<20)
		c.srvs[i] = &http.Server{Handler: mux}
		c.served[i] = make(chan error, 1)
		go func(srv *http.Server, done chan error) { done <- srv.Serve(ln) }(c.srvs[i], c.served[i])
		urls[i] = "http://" + ln.Addr().String()
	}
	c.nodes[0].SetPeers(map[int]cluster.Peer{1: cluster.NewHTTPPeer(urls[1], c.hc)})
	c.nodes[1].SetPeers(map[int]cluster.Peer{0: cluster.NewHTTPPeer(urls[0], c.hc)})
	return c, nil
}

func (c *inProcessCluster) close() {
	for i, srv := range c.srvs {
		if srv != nil {
			_ = srv.Close() // Serve's return below is the result that matters
			<-c.served[i]   // always http.ErrServerClosed after Close
		}
	}
	c.hc.CloseIdleConnections()
	for _, s := range c.svcs {
		if s != nil {
			s.Close()
		}
	}
}

func newReplayer(ctx context.Context, b *bench, tr *tracer) (*replayer, error) {
	r := &replayer{b: b, tr: tr, rounds: map[int]int{}}
	if b.streams != nil {
		eng, err := gcacc.ParseEngine("liutarjan")
		if err != nil {
			return nil, err
		}
		r.reg = stream.NewRegistry(stream.RegistryConfig{MaxGraphs: 64, MaxVertices: 1 << 20, MaxBatch: 65536, Engine: eng})
		sc := b.streams[0]
		if _, err := r.reg.Create(sc.name, sc.n); err != nil {
			return nil, err
		}
		r.oracle = newStreamOracle(sc.n)
		for i := range sc.preload {
			if _, err := r.reg.Append(ctx, sc.name, sc.preload[i].edges2sparse(), stream.NoEpoch); err != nil {
				return nil, fmt.Errorf("replay preload: %w", err)
			}
			r.oracle.mutate(&sc.preload[i])
		}
		// The two warm-up queries of the HTTP set-up.
		for i := 0; i < 2; i++ {
			if _, err := r.reg.Components(ctx, sc.name); err != nil {
				return nil, fmt.Errorf("replay warm-up: %w", err)
			}
		}
		return r, nil
	}
	eng, err := gcacc.ParseEngine(b.wl.engine)
	if err != nil {
		return nil, err
	}
	r.engine = eng
	if b.wl.cluster {
		r.cluster, err = newInProcessCluster(b.serviceConfig())
		if err != nil {
			return nil, err
		}
	} else {
		r.svc = service.New(b.serviceConfig())
	}
	// Warm-up mirrors the HTTP set-up: the hot and warm-up-only graphs,
	// untraced.
	on := tr.on
	tr.on = false
	defer func() { tr.on = on }()
	for _, idx := range b.comp.warmIndices() {
		if _, err := r.component(ctx, 0, idx); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	if r.cluster != nil {
		r.cluster.close()
	}
}

func (op *streamOp) edges2sparse() []sparse.Edge {
	edges := op.edges()
	out := make([]sparse.Edge, len(edges))
	for i, e := range edges {
		out[i] = sparse.Edge{U: e.u, V: e.v}
	}
	return out
}

// op replays request i of client 0.
func (r *replayer) op(ctx context.Context, i int) (replayOp, error) {
	if r.reg != nil {
		return r.streamOp(ctx, i)
	}
	return r.component(ctx, int32(i+1), r.b.comp.index(0, i))
}

// component replays one POST /v1/components: parse, (cluster: route on
// the fingerprint,) submit, encode. Probes follow a request that ran
// the engine.
func (r *replayer) component(ctx context.Context, req int32, idx int) (replayOp, error) {
	t := r.tr
	in := r.b.comp.graphs[idx]
	start := time.Now()
	root := t.begin(req, 0, "request")
	var m0, m1 runtime.MemStats
	if t.on {
		runtime.ReadMemStats(&m0)
	}
	sp := t.begin(req, root, "graph.parse")
	g, err := graph.ReadEdgeList(bytes.NewReader(in.body))
	t.end(sp)
	if t.on {
		runtime.ReadMemStats(&m1)
		t.set(sp, "alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
	}
	if err != nil {
		return replayOp{}, fmt.Errorf("replay parse: %w", err)
	}
	var res *service.Result
	var owner *int
	proxied := false
	if r.cluster != nil {
		sp = t.begin(req, root, "graph.fingerprint")
		o := r.cluster.nodes[0].Owner(g.Fingerprint())
		t.end(sp)
		owner = &o
		sp = t.begin(req, root, "cluster.submit")
		cres, err := r.cluster.nodes[0].Submit(ctx, service.Request{Graph: g, Engine: r.engine})
		t.end(sp)
		if err != nil {
			return replayOp{read: true}, nil
		}
		res, proxied = cres.Result, cres.Proxied
		t.set(sp, "proxied", b2i(proxied))
	} else {
		sp = t.begin(req, root, "service.submit")
		res, err = r.svc.Submit(ctx, service.Request{Graph: g, Engine: r.engine})
		t.end(sp)
		if err != nil {
			return replayOp{read: true}, nil
		}
	}
	t.submitChildren(req, sp, res)
	sp = t.begin(req, root, "http.encode")
	r.enc.Reset()
	err = json.NewEncoder(&r.enc).Encode(replyJSON{N: g.N(), Components: res.Components, Engine: res.Engine,
		Cached: res.Cached, Coalesced: res.Coalesced, Generations: res.Generations,
		WaitUS: res.Wait.Microseconds(), RunUS: res.Run.Microseconds(), Labels: res.Labels, Owner: owner, Proxied: proxied})
	t.end(sp)
	t.set(sp, "labels", int64(len(res.Labels)))
	t.end(root)
	op := replayOp{pipeline: time.Since(start), read: true, ok: err == nil && slices.Equal(res.Labels, in.labels)}
	if !t.on || res.Cached {
		return op, nil
	}
	if r.cluster == nil {
		// Standalone, service.Submit fingerprints internally; time the
		// same call on its own.
		sp = t.begin(req, 0, "graph.fingerprint")
		g.Fingerprint()
		t.end(sp)
	}
	if r.engine == gcacc.EngineGCA {
		if res.Generations != core.TotalGenerations(g.N()) {
			r.fail("input %d: the service reported %d generations, closed form %d", idx, res.Generations, core.TotalGenerations(g.N()))
		}
		r.probeGCA(ctx, req, g, in.labels)
	} else {
		sp = t.begin(req, 0, "sparse.fromdense")
		sg := sparse.FromDense(g)
		t.end(sp)
		rounds := r.probeLiuTarjan(ctx, req, sg, in.labels)
		if rounds != res.Generations {
			r.fail("input %d: Liu–Tarjan probe ran %d rounds, the service reported %d", idx, rounds, res.Generations)
		}
		if prev, seen := r.rounds[idx]; seen && prev != rounds {
			r.fail("input %d: Liu–Tarjan rounds %d, earlier %d", idx, rounds, prev)
		}
		r.rounds[idx] = rounds
	}
	return op, nil
}

func (r *replayer) fail(format string, args ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// gcaProbes bounds how often one input is probed when the generation
// spans of its core.Run call cover less than genCoverageMin of the call.
// A runtime stall outside the generations (a GC assist while the field
// is built, a thread descheduled at the per-step yield) does not repeat
// on the next call; a split that misses part of the run does.
const gcaProbes = 5

// probeGCA probes an input until one call meets genCoverageMin, at most
// gcaProbes times. layers checks that one did.
func (r *replayer) probeGCA(ctx context.Context, req int32, g *graph.Graph, want []int) {
	for range gcaProbes {
		if r.probeGCAOnce(ctx, req, g, want) >= genCoverageMin {
			return
		}
	}
}

// probeGCAOnce runs the paper's program with a per-generation split: a
// BeforeStep hook opens each generation's span and the Observer closes
// it. Neither hook switches off the kernel fast path. The observed
// generation count must equal the closed form, and every generation's
// active cells must stay within congestion.ActiveBound. It returns the
// share of the call's wall time the generation spans cover.
func (r *replayer) probeGCAOnce(ctx context.Context, req int32, g *graph.Graph, want []int) float64 {
	t := r.tr
	n := g.N()
	run := t.begin(req, 0, "core.run")
	var cur int32
	var covered int64
	steps := 0
	res, err := core.Run(g, core.Options{
		Ctx:     ctx,
		Workers: r.simPerJob(),
		Hooks: gca.StepHooks{BeforeStep: func(gca.Context) error {
			cur = t.begin(req, run, "core.gen")
			return nil
		}},
		Observer: gca.ObserverFunc(func(_ *gca.Field, s *gca.StepStats) {
			t.end(cur)
			t.set(cur, "gen", int64(s.Ctx.Generation))
			t.set(cur, "active", int64(s.Active))
			covered += t.dur(cur)
			steps++
			if bound := congestion.ActiveBound(s.Ctx.Generation, n); s.Active > bound {
				r.fail("n=%d generation %d: %d active cells > ActiveBound %d", n, s.Ctx.Generation, s.Active, bound)
			}
		}),
	})
	t.end(run)
	switch {
	case err != nil:
		r.fail("core.Run: %v", err)
	case res.Generations != core.TotalGenerations(n) || steps != res.Generations:
		r.fail("n=%d: %d generations (%d observed), closed form %d", n, res.Generations, steps, core.TotalGenerations(n))
	case !slices.Equal(res.Labels, want):
		r.fail("core.Run labelling differs from union-find")
	}
	return float64(covered) / float64(max(t.dur(run), 1))
}

// simPerJob is the simulator worker count the replayed service gives
// each engine run (GOMAXPROCS shared by its workers); the probes use it
// too.
func (r *replayer) simPerJob() int {
	return max(runtime.GOMAXPROCS(0)/r.b.serviceConfig().Workers, 1)
}

// probeLiuTarjan runs Liu–Tarjan split per round: BeforeStep closes the
// previous round's span and opens the next.
func (r *replayer) probeLiuTarjan(ctx context.Context, req int32, g *sparse.Graph, want []int) int {
	t := r.tr
	run := t.begin(req, 0, "sparse.liutarjan")
	var cur int32
	workers := r.simPerJob()
	if r.reg != nil {
		workers = 0 // the registry recomputes with GOMAXPROCS workers
	}
	res, err := sparse.LiuTarjan(g, sparse.Options{Ctx: ctx, Workers: workers, Variant: sparse.DefaultVariant,
		Hooks: gca.StepHooks{BeforeStep: func(gca.Context) error {
			t.end(cur)
			cur = t.begin(req, run, "sparse.round")
			return nil
		}}})
	t.end(cur)
	t.end(run)
	if err != nil {
		r.fail("sparse.LiuTarjan: %v", err)
		return -1
	}
	if !slices.Equal(res.Labels, want) {
		r.fail("sparse.LiuTarjan labelling differs from union-find")
	}
	return res.Rounds
}

// streamOp replays one stream-rw request of client 0: decode the batch
// and mutate, or query; then encode the reply as the handler does.
func (r *replayer) streamOp(ctx context.Context, i int) (replayOp, error) {
	t := r.tr
	sc, o := r.b.streams[0], r.oracle
	if i >= len(sc.ops) {
		return replayOp{}, errors.New("stream op sequence exhausted")
	}
	op := &sc.ops[i]
	req := int32(i + 1)
	start := time.Now()
	root := t.begin(req, 0, "request")
	var reply any
	ok := false
	var snap *stream.Snapshot
	if op.kind == opQuery {
		sp := t.begin(req, root, "stream.components")
		s, err := r.reg.Components(ctx, sc.name)
		t.end(sp)
		if err != nil {
			return replayOp{read: true}, nil
		}
		snap = s
		t.set(sp, "recomputed", b2i(s.Recomputed))
		epoch, comps, recomputed := o.query()
		ok = s.Epoch == epoch && s.Components == comps && s.Recomputed == recomputed &&
			(!op.labels || slices.Equal(s.Labels, o.uf.labels()))
		if !op.labels {
			s.Labels = nil
		}
		reply = s
	} else {
		name := "stream.append"
		if op.kind == opDelete {
			name = "stream.delete"
		}
		sp := t.begin(req, root, "stream.parse")
		edges, err := stream.ParseBatch(bytes.NewReader(op.body), r.reg.Config().MaxBatch)
		t.end(sp)
		if err != nil {
			return replayOp{}, fmt.Errorf("replay batch: %w", err)
		}
		sp = t.begin(req, root, name)
		var m stream.Mutation
		if op.kind == opAppend {
			m, err = r.reg.Append(ctx, sc.name, edges, stream.NoEpoch)
		} else {
			m, err = r.reg.Delete(ctx, sc.name, edges, stream.NoEpoch)
		}
		t.end(sp)
		want := o.mutate(op)
		if err != nil {
			return replayOp{}, nil
		}
		ok = m.Epoch == want
		reply = m
	}
	sp := t.begin(req, root, "http.encode")
	r.enc.Reset()
	err := json.NewEncoder(&r.enc).Encode(reply)
	t.end(sp)
	if snap != nil {
		t.set(sp, "labels", int64(len(snap.Labels)))
	}
	t.end(root)
	res := replayOp{pipeline: time.Since(start), read: op.kind == opQuery, ok: ok && err == nil}
	if t.on && snap != nil && snap.Recomputed {
		g := sparse.New(sc.n)
		for _, e := range o.liveEdges() {
			g.AddEdge(int(e.u), int(e.v))
		}
		if rounds := r.probeLiuTarjan(ctx, req, g, o.uf.labels()); rounds != snap.Rounds {
			r.fail("op %d: Liu–Tarjan probe ran %d rounds, the registry recompute %d", i, rounds, snap.Rounds)
		}
	}
	return res, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// genCoverageMin is the tolerance of the per-generation split: for every
// input, the generation spans of a core.Run call must cover at least this
// share of that call's wall time (see gcaProbes). The rest is field
// construction and label extraction.
const genCoverageMin = 0.75

// replayRun is one pass of the in-process replay.
type replayRun struct {
	ops    []replayOp
	spans  []span
	checks []string
}

// replay runs client 0's first limit requests in process. A positive
// budget stops the pass early; the untraced pass then replays the same
// count.
func (b *bench) replay(ctx context.Context, on bool, limit int, budget time.Duration) (*replayRun, error) {
	runtime.GC() // leave the previous pass's garbage out of this one
	tr := &tracer{on: on, t0: time.Now()}
	r, err := newReplayer(ctx, b, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	run := &replayRun{}
	start := time.Now()
	for i := 0; i < limit && (budget <= 0 || time.Since(start) < budget); i++ {
		op, err := r.op(ctx, i)
		if err != nil {
			return nil, err
		}
		run.ops = append(run.ops, op)
	}
	run.spans, run.checks = tr.spans, r.checks
	return run, nil
}

// runTraced measures the per-layer metrics. Phase 1 drives one client
// over HTTP (the end-to-end side of http.overhead_ms); phase 2 drives
// both, with the servers' counters scraped around it. Then the same
// inputs are replayed in process twice, with spans and without.
func (b *bench) runTraced(ctx context.Context, prov *provenance) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	procs, cl, setup, err := b.setUp(ctx, "trace")
	if err != nil {
		return nil, err
	}
	prov.Setups = []float64{setup}
	seq := b.sequence()
	stop := func() {
		closeClients(cl)
		stopAll(procs)
	}
	if _, err := runPhase(ctx, cl[:1], seq, 1, b.seconds/5); err != nil {
		stop()
		return nil, err
	}
	replayed := cl[0].next
	before, err := scrapeAll(ctx, procs)
	if err == nil {
		_, err = runPhase(ctx, cl, seq, 2, 2*b.seconds/5)
	}
	var after []serverStats
	if err == nil {
		after, err = scrapeAll(ctx, procs)
	}
	stop()
	if err != nil {
		return nil, err
	}
	d := deltaOf(before, after)
	prov.Counters = []counterDelta{d}
	outs := b.verify(cl)
	summarise(outs, -1).fill(res, prov)
	oneClient := summarise(outs, 1)

	on, err := b.replay(ctx, true, replayed, b.seconds/4)
	if err != nil {
		return nil, err
	}
	off, err := b.replay(ctx, false, len(on.ops), 0)
	if err != nil {
		return nil, err
	}
	prov.CrossChecks = append(on.checks, off.checks...)
	for _, run := range []*replayRun{on, off} {
		var s summary
		for _, op := range run.ops {
			s.attempted++
			if op.ok {
				s.ok++
			} else {
				s.wrong++
			}
		}
		s.fill(res, prov)
	}
	prov.Spans = filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.wl.name, b.seed))
	if err := writeSpans(prov.Spans, on.spans); err != nil {
		return nil, err
	}

	lm := newLayers(on.spans)
	put := res.putter(prov)
	lm.report(put)
	if lm.lowInputs > 0 {
		prov.CrossChecks = append(prov.CrossChecks, fmt.Sprintf(
			"on %d of %d inputs no core.Run call in %d had its generation spans cover %.0f%% of its wall time (lowest %.1f%%)",
			lm.lowInputs, lm.inputs, gcaProbes, 100*genCoverageMin, 100*lm.minCoverage))
	}
	res.Correct = prov.Wrong == 0 && len(prov.CrossChecks) == 0

	put("service.cache_hit_ratio", ratio(d.CacheHits, d.CacheHits+d.CacheMisses), "ratio", int(d.CacheHits+d.CacheMisses))
	put("service.coalesced", float64(d.Coalesced), "count", 1)
	put("service.rejected", float64(d.Rejected), "count", 1)
	put("cluster.proxied_share", ratio(d.Proxied, d.ClusterSubmit), "ratio", int(d.ClusterSubmit))
	put("cluster.peer_error_ratio", ratio(d.PeerErrors, d.PeerCalls), "ratio", int(d.PeerCalls))
	put("stream.recompute_share", ratio(d.StreamRecomps, d.StreamQueries), "ratio", int(d.StreamQueries))

	pipeOn, readsOff := pipelines(on.ops, false), pipelines(off.ops, true)
	onP50 := percentile(pipeOn, 0.5)
	offP50 := percentile(pipelines(off.ops, false), 0.5)
	put("trace.overhead_pct", 100*(ms(onP50)-ms(offP50))/max(ms(offP50), 1e-9), "%", len(pipeOn))
	e2e := percentile(oneClient.reads, 0.5)
	replayP50 := percentile(readsOff, 0.5)
	put("http.overhead_ms", ms(e2e)-ms(replayP50), "ms", len(readsOff))
	prov.Extra = map[string]float64{"http_p50_ms_1client": ms(e2e), "replay_p50_ms_reads": ms(replayP50),
		"replay_p50_ms_traced": ms(onP50), "replay_p50_ms_untraced": ms(offP50),
		"core_gen_coverage_min_pct": 100 * lm.minCoverage, "core_gen_reprobes": float64(lm.runs - lm.inputs)}
	return res, nil
}

// pipelines returns the handler-path durations of the replayed
// requests, or of the reads only.
func pipelines(ops []replayOp, readsOnly bool) []time.Duration {
	var out []time.Duration
	for _, op := range ops {
		if op.ok && (op.read || !readsOnly) {
			out = append(out, op.pipeline)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layers derives the per-layer figures from the spans: a layer's self
// time is its span's duration minus its children's.
type layers struct {
	spans       []span
	children    map[int32][]int32
	runs        int     // core.Run probes
	inputs      int     // distinct inputs probed
	genCoverage float64 // Σ generation spans ÷ Σ core.run spans
	minCoverage float64 // the lowest one call's generation spans cover
	lowInputs   int     // inputs no call of which met genCoverageMin
}

func newLayers(spans []span) *layers {
	l := &layers{spans: spans, children: map[int32][]int32{}}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			l.children[p] = append(l.children[p], spans[i].ID)
		}
	}
	return l
}

func (l *layers) self(s *span) int64 {
	d := s.dur()
	for _, c := range l.children[s.ID] {
		d -= l.spans[c-1].dur()
	}
	return d
}

// collect returns f(span) in ms for every span named name that keep
// accepts.
func (l *layers) collect(name string, keep func(*span) bool, f func(*span) int64) []time.Duration {
	var out []time.Duration
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, time.Duration(f(s)))
		}
	}
	return out
}

func attrIs(key string, want int64) func(*span) bool {
	return func(s *span) bool { return s.attr(key) == want }
}

func (l *layers) report(put func(name string, v float64, unit string, samples int)) {
	dur := func(s *span) int64 { return s.dur() }
	medMS := func(name string, ds []time.Duration) {
		p := percentile(ds, 0.5)
		put(name, ms(p), "ms", len(ds))
	}
	medMS("graph.parse_ms", l.collect("graph.parse", nil, dur))
	alloc := l.collect("graph.parse", nil, func(s *span) int64 { return s.attr("alloc_bytes") })
	a := percentile(alloc, 0.5)
	put("graph.parse_alloc_mb", float64(a)/(1<<20), "MiB", len(alloc))
	medMS("graph.fingerprint_ms", l.collect("graph.fingerprint", nil, dur))
	medMS("gcacc.engine_ms", l.collect("gcacc.engine", nil, dur))
	medMS("service.queue_wait_ms", l.collect("service.queue_wait", nil, dur))
	self := append(l.collect("service.submit", nil, l.self), l.collect("cluster.submit", attrIs("proxied", 0), l.self)...)
	medMS("service.submit_self_ms", self)
	medMS("cluster.peer_hop_ms", l.collect("cluster.submit", attrIs("proxied", 1), l.self))
	medMS("http.encode_ms", l.collect("http.encode", func(s *span) bool { return s.attr("labels") > 0 }, dur))
	medMS("sparse.fromdense_ms", l.collect("sparse.fromdense", nil, dur))
	medMS("sparse.round_ms", l.collect("sparse.round", nil, dur))
	rounds := l.collect("sparse.liutarjan", nil, func(s *span) int64 { return int64(len(l.children[s.ID])) })
	r := percentile(rounds, 0.5)
	put("sparse.rounds", float64(r), "count", len(rounds))
	appends := l.collect("stream.append", nil, dur)
	ap := percentile(appends, 0.5)
	put("stream.append_us", float64(ap)/float64(time.Microsecond), "us", len(appends))
	medMS("stream.query_ms", l.collect("stream.components", attrIs("recomputed", 0), dur))
	medMS("stream.recompute_ms", l.collect("stream.components", attrIs("recomputed", 1), dur))

	// The GCA engine per Figure-2 generation: per core.Run call, the
	// time in each generation id summed over iterations and
	// sub-generations; medians over calls.
	var perGen [12][]time.Duration
	var gens, active []time.Duration
	var genSum, runSum int64
	best := map[int32]float64{} // per input, its best-covered call
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name != "core.run" {
			continue
		}
		l.runs++
		runSum += s.dur()
		var byGen [12]int64
		var act, covered int64
		for _, c := range l.children[s.ID] {
			g := &l.spans[c-1]
			byGen[g.attr("gen")] += g.dur()
			act += g.attr("active")
			covered += g.dur()
		}
		genSum += covered
		cov := float64(covered) / float64(max(s.dur(), 1))
		if l.runs == 1 || cov < l.minCoverage {
			l.minCoverage = cov
		}
		if b, seen := best[s.Req]; !seen || cov > b {
			best[s.Req] = cov
		}
		for k := range perGen {
			perGen[k] = append(perGen[k], time.Duration(byGen[k]))
		}
		gens = append(gens, time.Duration(len(l.children[s.ID])))
		active = append(active, time.Duration(act))
	}
	for k := range perGen {
		medMS(fmt.Sprintf("core.gen_ms.g%d", k), perGen[k])
	}
	g := percentile(gens, 0.5)
	put("core.generations", float64(g), "count", len(gens))
	act := percentile(active, 0.5)
	put("core.active_cells", float64(act), "count", len(active))
	if runSum > 0 {
		l.genCoverage = float64(genSum) / float64(runSum)
	}
	l.inputs = len(best)
	for _, b := range best {
		if b < genCoverageMin {
			l.lowInputs++
		}
	}
	put("core.gen_coverage_pct", 100*l.genCoverage, "%", l.runs)
}

// Command perfbench is the repository's end-to-end serving benchmark.
//
// With -trace 0 it starts real gca-serve processes, drives them over
// loopback HTTP with a closed loop of two clients (one connection each,
// one request in flight each), checks every reply against its own
// union-find oracle, and reports the end-to-end metrics. With -trace 1
// it reports per-layer metrics instead: counters scraped from the
// servers around a timed phase, and spans from an in-process replay of
// the same inputs through each layer's public functions.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// run's provenance. The exit code is 0 only when every checked output
// was correct.
//
//	bash perfbench/run.sh --workload dense-gca --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one traffic mix. tail is the percentile reported as
// latency_tail_ms: the highest of p99, p95 and p90 that left at least
// ten of a run's samples beyond it and whose spread held over sets of
// ten seeds. dense-gca's p99 spread 0.16-0.30 of its median over ten
// seeds on a shared 2-vCPU host; stream-rw's p99, taken per segment,
// rests on 6-7 samples of a segment; cluster-proxy's p99 moved 19% and
// its p95 10% between sets (its p90 2%). dense-gca and cluster-proxy
// share their inputs, so they share p90 and their tails compare.
type workload struct {
	name    string
	tail    float64
	engine  string // components workloads
	cluster bool
	stream  bool
}

var workloads = []workload{
	{name: "dense-gca", tail: 0.90, engine: "gca"},
	{name: "sparse-edgelist", tail: 0.95, engine: "liutarjan"},
	{name: "stream-rw", tail: 0.95, stream: true},
	{name: "cluster-proxy", tail: 0.90, engine: "gca", cluster: true},
}

const clients = 2

// bench is one run's configuration and generated inputs.
type bench struct {
	wl      workload
	sz      sizes
	seed    int64
	seconds time.Duration
	serve   string // gca-serve binary
	out     string // directory for server logs and spans
	comp    *componentInputs
	streams []*streamClient
	flags   [][]string // gca-serve flags of the last start, per replica
	// corrupt, when set, rewrites the first reply before verification;
	// the self-test uses it to show a wrong labelling is caught.
	corrupt func([]byte) []byte
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// putter returns a function that records a metric and its sample count.
func (r *result) putter(prov *provenance) func(name string, v float64, unit string, samples int) {
	return func(name string, v float64, unit string, samples int) {
		r.Metrics[name] = metric{v, unit}
		prov.Samples[name] = samples
	}
}

// provenance records what produced a result.
type provenance struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          int                `json:"trace"`
	Nproc          int                `json:"nproc"`
	ClientProcs    int                `json:"client_gomaxprocs"`
	ServerProcs    string             `json:"server_gomaxprocs"`
	GoVersion      string             `json:"go_version"`
	GitSHA         string             `json:"git_sha"`
	GitDirty       string             `json:"git_dirty"`
	ServerFlags    [][]string         `json:"server_flags"`
	Clients        int                `json:"clients"`
	TailPercentile float64            `json:"tail_percentile"`
	TailBeyond     int                `json:"tail_samples_beyond"`
	Samples        map[string]int     `json:"samples"`
	Setups         []float64          `json:"setup_s_each"`
	Counters       []counterDelta     `json:"counters"`
	ErrorRate      float64            `json:"error_rate"`
	Wrong          int                `json:"wrong_outputs"`
	CrossChecks    []string           `json:"failed_cross_checks,omitempty"`
	Extra          map[string]float64 `json:"extra,omitempty"`
	Spans          string             `json:"spans_file,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dense-gca | sparse-edgelist | stream-rw | cluster-proxy")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		serve   = flag.String("serve", "", "prebuilt gca-serve binary")
		out     = flag.String("out", ".bench_build", "directory for server logs and span files")
	)
	flag.Parse()
	b, err := newBench(*name, *seed, *seconds, *serve, *out, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, prov, err := b.run(ctx, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(2)
	}
	if err := report(os.Stdout, res, prov); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(2)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong outputs or failed cross-checks; see the provenance line")
		cancel()
		os.Exit(1)
	}
}

func newBench(name string, seed int64, seconds float64, serve, out string, tiny bool) (*bench, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if _, err := os.Stat(serve); err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(out, "logs"), 0o755); err != nil {
		return nil, err
	}
	b := &bench{wl: *wl, sz: fullSizes, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), serve: serve, out: out}
	if tiny {
		b.sz = tinySizes
	}
	switch {
	case wl.stream:
		b.streams = streamInputs(b.sz, seed, clients, int(seconds*float64(b.sz.streamRate))+1000)
	case wl.engine == "liutarjan":
		b.comp = sparseInputs(b.sz, seed)
	default:
		b.comp = denseInputs(b.sz, seed)
	}
	return b, nil
}

// serverArgs are the gca-serve flags and extra environment of each
// replica.
func (b *bench) serverArgs(ports []int) (args, env [][]string) {
	switch {
	case b.wl.cluster:
		peers := fmt.Sprintf("http://127.0.0.1:%d,http://127.0.0.1:%d", ports[0], ports[1])
		for i := range ports {
			args = append(args, []string{"-peers", peers, "-self", fmt.Sprint(i), "-cluster-mode", "proxy"})
			env = append(env, []string{"GOMAXPROCS=1"})
		}
	case b.wl.name == "sparse-edgelist":
		args, env = [][]string{{"-cache", fmt.Sprint(b.sz.sparseCache)}}, [][]string{nil}
	default:
		args, env = [][]string{{}}, [][]string{nil}
	}
	return args, env
}

// start execs the replicas and waits until each answers /healthz.
func (b *bench) start(ctx context.Context, tag string) ([]*serverProc, error) {
	n := 1
	if b.wl.cluster {
		n = 2
	}
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	args, env := b.serverArgs(ports)
	b.flags = args
	var procs []*serverProc
	for i := range ports {
		log := filepath.Join(b.out, "logs", fmt.Sprintf("%s-%s-%d.log", b.wl.name, tag, i))
		p, err := startServer(b.serve, ports[i], args[i], env[i], log)
		if err != nil {
			stopAll(procs)
			return nil, err
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		if err := p.waitReady(ctx); err != nil {
			stopAll(procs)
			return nil, err
		}
	}
	return procs, nil
}

func stopAll(procs []*serverProc) {
	for _, p := range procs {
		if err := p.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

// sequence returns the request sequence of the workload's clients.
func (b *bench) sequence() sequence {
	if b.streams != nil {
		return func(c, i int) (httpReq, error) {
			sc := b.streams[c]
			if i >= len(sc.ops) {
				return httpReq{}, fmt.Errorf("client %d exhausted its %d stream ops; raise streamRate", c, len(sc.ops))
			}
			op := &sc.ops[i]
			path := "/v1/graphs/" + sc.name
			switch op.kind {
			case opAppend:
				return httpReq{method: "POST", path: path + "/edges", body: op.body}, nil
			case opDelete:
				return httpReq{method: "DELETE", path: path + "/edges", body: op.body}, nil
			}
			if op.labels {
				return httpReq{method: "GET", path: path + "/components"}, nil
			}
			return httpReq{method: "GET", path: path + "/components?labels=0"}, nil
		}
	}
	return func(c, i int) (httpReq, error) {
		return b.componentsReq(b.comp.index(c, i)), nil
	}
}

// componentsReq is the POST /v1/components request for input idx.
func (b *bench) componentsReq(idx int) httpReq {
	return httpReq{method: "POST", path: "/v1/components?engine=" + b.wl.engine, body: b.comp.graphs[idx].body}
}

// prepare runs the workload's preload and warm-up over the clients'
// own connections.
func (b *bench) prepare(ctx context.Context, cl []*client) error {
	for k, c := range cl {
		if b.streams == nil {
			for _, idx := range b.comp.warmIndices() {
				if err := c.expect(ctx, b.componentsReq(idx), 200); err != nil {
					return err
				}
			}
			continue
		}
		sc := b.streams[k]
		path := "/v1/graphs/" + sc.name
		if err := c.expect(ctx, httpReq{method: "PUT", path: fmt.Sprintf("%s?n=%d", path, sc.n)}, 201); err != nil {
			return err
		}
		for _, op := range sc.preload {
			if err := c.expect(ctx, httpReq{method: "POST", path: path + "/edges", body: op.body}, 200); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if err := c.expect(ctx, httpReq{method: "GET", path: path + "/components?labels=0"}, 200); err != nil {
				return err
			}
		}
	}
	return nil
}

// setUp starts the replicas and prepares them; setup_s is its wall time.
func (b *bench) setUp(ctx context.Context, tag string) ([]*serverProc, []*client, float64, error) {
	t0 := time.Now()
	procs, err := b.start(ctx, tag)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := make([]*client, clients)
	for i := range cl {
		cl[i] = newClient(i, procs[0].url)
	}
	if err := b.prepare(ctx, cl); err != nil {
		stopAll(procs)
		return nil, nil, 0, err
	}
	return procs, cl, time.Since(t0).Seconds(), nil
}

func scrapeAll(ctx context.Context, procs []*serverProc) ([]serverStats, error) {
	out := make([]serverStats, len(procs))
	for i, p := range procs {
		s, err := scrape(ctx, p)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// verify checks every record of every client; the self-test's corrupt
// hook rewrites the run's first reply beforehand.
func (b *bench) verify(cl []*client) []outcome {
	var out []outcome
	for _, c := range cl {
		recs := c.recs
		if b.corrupt != nil && len(recs) > 0 {
			recs[0].body = b.corrupt(recs[0].body)
			b.corrupt = nil
		}
		if b.streams != nil {
			out = append(out, verifyStream(b.streams[c.id], recs)...)
		} else {
			out = append(out, verifyComponents(b.comp, c.id, recs)...)
		}
	}
	return out
}

func (b *bench) run(ctx context.Context, traced bool) (*result, *provenance, error) {
	prov := &provenance{
		Workload: b.wl.name, Seed: b.seed, Seconds: b.seconds.Seconds(), Trace: int(b2i(traced)),
		Nproc: runtime.NumCPU(), ClientProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: clients, TailPercentile: b.wl.tail, Samples: map[string]int{},
	}
	prov.GitSHA, prov.GitDirty = gitState()
	prov.ServerProcs = os.Getenv("GOMAXPROCS")
	if prov.ServerProcs == "" {
		prov.ServerProcs = fmt.Sprint(runtime.NumCPU())
	}
	if b.wl.cluster {
		prov.ServerProcs = "1"
	}
	run := b.runEndToEnd
	if traced {
		run = b.runTraced
	}
	res, err := run(ctx, prov)
	prov.ServerFlags = b.flags
	return res, prov, err
}

// runEndToEnd splits the timed phase into segments, each against
// freshly started replicas, so one run samples several server start-ups
// (their speed differs from start-up to start-up). Every timing metric
// is the median over the segments of that segment's figure, so a burst
// of host noise that spoils one segment does not move the run's result;
// setup_s is the median of the segments' set-ups.
func (b *bench) runEndToEnd(ctx context.Context, prov *provenance) (*result, error) {
	var outs []outcome
	var rss []float64
	var segs []summary
	var elapsed []time.Duration
	hwm := 0.0
	for k := 0; k < b.sz.setups; k++ {
		procs, cl, s, err := b.setUp(ctx, fmt.Sprintf("seg%d", k))
		if err != nil {
			return nil, err
		}
		prov.Setups = append(prov.Setups, s)
		seg, err := b.segment(ctx, procs, cl, k, b.seconds/time.Duration(b.sz.setups))
		closeClients(cl)
		stopAll(procs)
		if err != nil {
			return nil, err
		}
		outs = append(outs, seg.outs...)
		segs = append(segs, summarise(seg.outs, -1))
		rss = append(rss, seg.rss...)
		elapsed = append(elapsed, seg.elapsed)
		hwm = max(hwm, seg.hwm)
		prov.Counters = append(prov.Counters, seg.counters)
	}
	res := &result{Metrics: map[string]metric{}}
	e := summarise(outs, -1)
	e.fill(res, prov)
	put := res.putter(prov)
	prov.Extra = map[string]float64{"server_hwm_mb": hwm}
	// perSegment is the median over the segments of a figure of each.
	perSegment := func(f func(s summary, el time.Duration) float64) float64 {
		xs := make([]float64, len(segs))
		for i, s := range segs {
			xs[i] = f(s, elapsed[i])
		}
		return median(xs)
	}
	pct := func(q float64, writes bool) func(summary, time.Duration) float64 {
		return func(s summary, _ time.Duration) float64 {
			ds := s.reads
			if writes {
				ds = s.writes
			}
			return ms(percentile(ds, q))
		}
	}
	// The candidate tail percentiles, for choosing latency_tail_ms's,
	// and how many of the run's samples lie beyond each.
	for _, q := range []float64{0.90, 0.95, 0.99} {
		v := perSegment(pct(q, false))
		prov.Extra[fmt.Sprintf("tail_p%.0f_ms", 100*q)] = v
		prov.Extra[fmt.Sprintf("tail_p%.0f_beyond", 100*q)] = float64(beyond(e.reads, v))
	}
	put("throughput_rps", perSegment(func(s summary, el time.Duration) float64 {
		return float64(s.ok) / el.Seconds()
	}), "1/s", e.ok)
	put("latency_p50_ms", perSegment(pct(0.5, false)), "ms", len(e.reads))
	tail := perSegment(pct(b.wl.tail, false))
	put("latency_tail_ms", tail, "ms", len(e.reads))
	prov.TailBeyond = beyond(e.reads, tail)
	put("write_p50_ms", perSegment(pct(0.5, true)), "ms", len(e.writes))
	put("success_rate", float64(e.ok)/float64(max(e.attempted, 1)), "ratio", e.attempted)
	put("setup_s", median(prov.Setups), "s", len(prov.Setups))
	put("server_rss_mb", median(rss), "MiB", len(rss))
	return res, nil
}

// beyond counts the samples slower than v milliseconds.
func beyond(ds []time.Duration, v float64) int {
	n := 0
	for _, d := range ds {
		if ms(d) > v {
			n++
		}
	}
	return n
}

// segmentResult is one timed segment against one set of replicas.
type segmentResult struct {
	outs     []outcome
	rss      []float64 // summed VmRSS samples
	hwm      float64   // summed VmHWM at the end
	elapsed  time.Duration
	counters counterDelta
}

// segment runs one timed phase, scraping the counters around it and
// sampling the replicas' resident set during it, then checks the
// replies.
func (b *bench) segment(ctx context.Context, procs []*serverProc, cl []*client, phase int, dur time.Duration) (*segmentResult, error) {
	before, err := scrapeAll(ctx, procs)
	if err != nil {
		return nil, err
	}
	sampler := sampleRSS(procs, 100*time.Millisecond)
	elapsed, err := runPhase(ctx, cl, b.sequence(), phase, dur)
	rss, serr := sampler.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ctx, procs)
	if err != nil {
		return nil, err
	}
	hwm, err := sumMB(procs, "VmHWM:")
	if err != nil {
		return nil, err
	}
	return &segmentResult{outs: b.verify(cl), rss: rss, hwm: hwm, elapsed: elapsed, counters: deltaOf(before, after)}, nil
}

func closeClients(cl []*client) {
	for _, c := range cl {
		c.close()
	}
}

// gitState reports the checkout's commit and whether it has local
// changes, or "unknown" outside a git work tree.
func gitState() (sha, dirty string) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(out)), "unknown"
	}
	return strings.TrimSpace(string(out)), fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
}

// report prints every metric with its unit, then the provenance line,
// then the result line.
func report(w io.Writer, res *result, prov *provenance) error {
	var buf bytes.Buffer
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(&buf, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	p, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "%s\n%s\n", p, r)
	_, err = w.Write(buf.Bytes())
	return err
}

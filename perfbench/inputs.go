package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// sizes fixes the input shapes of every workload. fullSizes is what the
// benchmark measures; tinySizes keeps the self-test fast.
type sizes struct {
	denseN    int     // vertices per dense-gca / cluster-proxy graph
	denseP    float64 // G(n,p) edge probability
	densePool int     // distinct graphs cycled by the cache-missing requests
	denseHot  int     // graphs repeated by every fourth request
	warm      int     // extra graphs used only for warm-up

	sparseN, sparseM int // sparse-edgelist graph shape
	sparsePool       int // bodies cycled; each client's half exceeds sparseCache
	sparseCache      int // the server's -cache for sparse-edgelist

	streamN        int // vertices per named graph
	streamUniverse int // distinct candidate edges per named graph
	streamPreload  int // edges appended during set-up
	streamBatch    int // edges per append
	streamPool     int // distinct append batches the appends replay
	streamDelete   int // edges per delete
	streamAppends  int // appends between two queries
	streamSample   int // one query in streamSample returns full labels
	streamRate     int // ops/s per client the op sequence is sized for; far above today's ~600

	setups int // timed segments per run, each after its own set-up
}

var fullSizes = sizes{
	denseN: 128, denseP: 0.03, densePool: 2048, denseHot: 16, warm: 8,
	sparseN: 16384, sparseM: 32768, sparsePool: 16, sparseCache: 4,
	streamN: 100000, streamUniverse: 200000, streamPreload: 100000,
	streamBatch: 64, streamPool: 4096, streamDelete: 2, streamAppends: 7, streamSample: 32, streamRate: 20000,
	setups: 4,
}

var tinySizes = sizes{
	denseN: 128, denseP: 0.03, densePool: 24, denseHot: 2, warm: 2,
	sparseN: 300, sparseM: 400, sparsePool: 6, sparseCache: 1,
	streamN: 400, streamUniverse: 800, streamPreload: 300,
	streamBatch: 8, streamPool: 64, streamDelete: 2, streamAppends: 3, streamSample: 4, streamRate: 50000,
	setups: 2,
}

// edge is an undirected edge with u < v.
type edge struct{ u, v int32 }

func canon(u, v int) edge {
	if u > v {
		u, v = v, u
	}
	return edge{int32(u), int32(v)}
}

// appendEdgeList serialises a graph in the "edges" text format of
// internal/graph: a header "n m", then one "u v" line per edge.
func appendEdgeList(buf []byte, n int, edges []edge) []byte {
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(edges)), 10)
	buf = append(buf, '\n')
	return appendPairs(buf, edges)
}

// appendPairs serialises "u v" lines, the stream API's batch format.
func appendPairs(buf []byte, edges []edge) []byte {
	for _, e := range edges {
		buf = strconv.AppendInt(buf, int64(e.u), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.v), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// unionFind is the benchmark's own oracle, independent of the program
// under test. Labels are the smallest vertex of each component, the
// labelling every engine of the program returns. union links the larger
// root under the smaller, so every root is its set's smallest vertex.
type unionFind struct {
	parent []int32
	sets   int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), sets: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.sets--
}

func (u *unionFind) labels() []int {
	out := make([]int, len(u.parent))
	for i := range out {
		out[i] = int(u.find(int32(i)))
	}
	return out
}

func labelsOf(n int, edges []edge) []int {
	u := newUnionFind(n)
	for _, e := range edges {
		u.union(e.u, e.v)
	}
	return u.labels()
}

// graphInput is one pre-serialised POST /v1/components body with its
// oracle labelling.
type graphInput struct {
	body   []byte
	labels []int
}

// gnp draws G(n,p).
func gnp(rng *rand.Rand, n int, p float64) []edge {
	var edges []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
	}
	return edges
}

// uniformEdges draws m distinct edges uniformly, without self-loops.
func uniformEdges(rng *rand.Rand, n, m int) []edge {
	seen := make(map[edge]struct{}, m)
	edges := make([]edge, 0, m)
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := canon(u, v)
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	return edges
}

func makeGraphInput(n int, edges []edge) graphInput {
	return graphInput{body: appendEdgeList(nil, n, edges), labels: labelsOf(n, edges)}
}

// componentInputs is the pool of the three /v1/components workloads.
// Requests address it by index: [0, pool) are the cache-missing graphs,
// [pool, pool+hot) the repeated ones, and the rest serve warm-up only.
type componentInputs struct {
	graphs []graphInput
	pool   int
	hot    int
	seed   int64
}

func denseInputs(sz sizes, seed int64) *componentInputs {
	rng := rand.New(rand.NewSource(seed))
	ci := &componentInputs{pool: sz.densePool, hot: sz.denseHot, seed: seed}
	for i := 0; i < sz.densePool+sz.denseHot+sz.warm; i++ {
		ci.graphs = append(ci.graphs, makeGraphInput(sz.denseN, gnp(rng, sz.denseN, sz.denseP)))
	}
	return ci
}

func sparseInputs(sz sizes, seed int64) *componentInputs {
	rng := rand.New(rand.NewSource(seed))
	ci := &componentInputs{pool: sz.sparsePool, seed: seed}
	for i := 0; i < sz.sparsePool+2; i++ {
		ci.graphs = append(ci.graphs, makeGraphInput(sz.sparseN, uniformEdges(rng, sz.sparseN, sz.sparseM)))
	}
	return ci
}

// index returns the input of request i of client c (of two). Without
// hot graphs every request walks the pool; with them, every fourth
// request picks a hot graph by a seeded hash and the other three walk
// the pool. The clients take alternate pool entries, so the two never
// ask for the same cache-missing graph at once.
func (ci *componentInputs) index(c, i int) int {
	if ci.hot == 0 {
		return (2*i + c) % ci.pool
	}
	if i%4 == 3 {
		return ci.pool + int(mix(uint64(ci.seed), uint64(c)<<32|uint64(i))%uint64(ci.hot))
	}
	j := (i/4)*3 + i%4
	return (2*j + c) % ci.pool
}

// warmIndices are the inputs requested during set-up: every hot graph
// (so the hit share is steady from the first timed request) and the
// warm-up-only graphs, which no timed request uses.
func (ci *componentInputs) warmIndices() []int {
	var idx []int
	for i := ci.pool; i < len(ci.graphs); i++ {
		idx = append(idx, i)
	}
	return idx
}

// mix is splitmix64 over a^b: a cheap seeded hash.
func mix(a, b uint64) uint64 {
	x := (a ^ b) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opKind names the stream-rw operations.
type opKind uint8

const (
	opAppend opKind = iota
	opDelete
	opQuery
)

// streamOp is one pre-serialised request of a stream-rw client. Only
// the serialised batch is kept: a client holds tens of thousands.
type streamOp struct {
	kind   opKind
	body   []byte // mutation batch, "u v" lines
	labels bool   // query asks for the full labelling
}

// edges parses the op's batch back.
func (op *streamOp) edges() []edge {
	var out []edge
	var x [2]int32
	k := 0
	for _, ch := range op.body {
		switch {
		case ch >= '0' && ch <= '9':
			x[k] = x[k]*10 + int32(ch-'0')
		case ch == ' ':
			k = 1
		case ch == '\n':
			out = append(out, edge{x[0], x[1]})
			x, k = [2]int32{}, 0
		}
	}
	return out
}

// streamClient is one client's named graph: its preload batches and
// its op sequence.
type streamClient struct {
	name    string
	n       int
	preload []streamOp
	ops     []streamOp
}

// streamInputs builds one named graph per client. Appends draw from a
// fixed universe of candidate edges, so the live edge count levels off
// instead of growing with the run length, and they replay batches from
// a seeded pool, so a long op sequence stays small. Before every query a
// seeded coin (p = 1/4) deletes a few live edges, which makes that query
// recompute.
func streamInputs(sz sizes, seed int64, clients, opsPerClient int) []*streamClient {
	out := make([]*streamClient, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*31 + int64(c) + 1))
		universe := uniformEdges(rng, sz.streamN, sz.streamUniverse)
		sc := &streamClient{name: fmt.Sprintf("bench-%d", c), n: sz.streamN}
		live := make([]bool, len(universe))
		nlive := 0
		for lo := 0; lo < sz.streamPreload; lo += 65536 {
			hi := min(lo+65536, sz.streamPreload)
			sc.preload = append(sc.preload, streamOp{kind: opAppend, body: appendPairs(nil, universe[lo:hi])})
			for i := lo; i < hi; i++ {
				live[i] = true
			}
			nlive += hi - lo
		}
		pool := make([][]int, sz.streamPool)
		bodies := make([][]byte, sz.streamPool)
		for j := range pool {
			batch := make([]edge, sz.streamBatch)
			for i := range batch {
				pool[j] = append(pool[j], rng.Intn(len(universe)))
				batch[i] = universe[pool[j][i]]
			}
			bodies[j] = appendPairs(nil, batch)
		}
		queries := 0
		for len(sc.ops) < opsPerClient {
			if rng.Intn(4) == 0 && nlive > 2*sz.streamDelete {
				var batch []edge
				for len(batch) < sz.streamDelete {
					if i := rng.Intn(len(universe)); live[i] {
						live[i] = false
						nlive--
						batch = append(batch, universe[i])
					}
				}
				sc.ops = append(sc.ops, streamOp{kind: opDelete, body: appendPairs(nil, batch)})
			}
			for k := 0; k < sz.streamAppends; k++ {
				j := rng.Intn(len(pool))
				for _, i := range pool[j] {
					if !live[i] {
						live[i] = true
						nlive++
					}
				}
				sc.ops = append(sc.ops, streamOp{kind: opAppend, body: bodies[j]})
			}
			sc.ops = append(sc.ops, streamOp{kind: opQuery, labels: queries%sz.streamSample == sz.streamSample-1})
			queries++
		}
		out[c] = sc
	}
	return out
}

// streamOracle replays a client's mutations and answers what every
// query must return: the epoch (one per accepted batch), the component
// count, whether the query recomputes (a deletion since the last
// query), and on request the full labelling.
type streamOracle struct {
	n     int
	live  map[edge]struct{}
	uf    *unionFind
	dirty bool
	epoch uint64
}

func newStreamOracle(n int) *streamOracle {
	return &streamOracle{n: n, live: map[edge]struct{}{}, uf: newUnionFind(n)}
}

// mutate applies one accepted batch and returns the epoch after it.
func (o *streamOracle) mutate(op *streamOp) uint64 {
	for _, e := range op.edges() {
		if op.kind == opAppend {
			if _, ok := o.live[e]; !ok {
				o.live[e] = struct{}{}
				o.uf.union(e.u, e.v)
			}
		} else if _, ok := o.live[e]; ok {
			delete(o.live, e)
			o.dirty = true
		}
	}
	o.epoch++
	return o.epoch
}

// query returns the expected answer; it rebuilds the forest after
// deletions, as the registry's recompute does.
func (o *streamOracle) query() (epoch uint64, components int, recomputed bool) {
	recomputed = o.dirty
	if o.dirty {
		o.uf = newUnionFind(o.n)
		for e := range o.live {
			o.uf.union(e.u, e.v)
		}
		o.dirty = false
	}
	return o.epoch, o.uf.sets, recomputed
}

// liveEdges returns the live edge set (order unspecified).
func (o *streamOracle) liveEdges() []edge {
	out := make([]edge, 0, len(o.live))
	for e := range o.live {
		out = append(out, e)
	}
	return out
}

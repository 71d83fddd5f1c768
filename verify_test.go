package gcacc_test

import (
	"os"
	"strconv"
	"testing"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/verify"
)

// The conformance entry points: `go test -run Conformance` runs every
// engine (and the serving-layer path) over the shared corpus with the
// differential, metamorphic and analytic-oracle checks of internal/verify.
// TESTING.md documents the harness; cmd/gca-verify is the CLI counterpart.

// TestConformanceCorpus is the main gate: all five engines plus the
// service path over every corpus family at a small size budget.
func TestConformanceCorpus(t *testing.T) {
	rep, err := verify.Run(verify.Options{
		N: 16, Seed: 1, Service: true, Metamorphic: true, Oracles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Families) < 6 {
		t.Fatalf("corpus covers %d families, the conformance contract needs ≥ 6", len(rep.Families))
	}
	wantEngines := len(gcacc.Engines())
	direct := 0
	for _, e := range rep.Engines {
		if e.Path == "direct" {
			direct++
		}
		if e.Cases != rep.Cases {
			t.Errorf("engine %s/%s ran %d of %d cases", e.Engine, e.Path, e.Cases, rep.Cases)
		}
	}
	if direct != wantEngines {
		t.Fatalf("harness exercised %d engines, want %d", direct, wantEngines)
	}
	if !rep.OK() {
		t.Fatalf("conformance failures:\n%s", rep.Format())
	}
}

// TestConformanceServiceFaulty rides the chaos invariant on tier 1: a
// small corpus through the fault-injected serving path (retry, breaker,
// sequential fallback) at a fixed seed. Requests may error under the
// injected faults — errors are tolerated and counted — but every result
// that comes back must equal the union-find ground truth. The full
// seeded soak lives in internal/verify (TestChaosSoak, `make
// chaos-smoke`); this sub-run keeps the invariant continuously checked
// by plain `go test ./...`.
func TestConformanceServiceFaulty(t *testing.T) {
	rep, err := verify.Run(verify.Options{
		N: 8, Seed: 5, Service: false, Metamorphic: false, Oracles: false,
		FaultSpec: "seed=7,steperr=0.02,stepdelay=0.05:100us,stall=0.05:100us",
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty := 0
	for _, e := range rep.Engines {
		if e.Path == "service-faulty" {
			faulty++
			if e.Cases != rep.Cases {
				t.Errorf("engine %s/%s ran %d of %d cases", e.Engine, e.Path, e.Cases, rep.Cases)
			}
		}
	}
	if faulty != len(gcacc.Engines()) {
		t.Fatalf("faulty path exercised %d engines, want %d", faulty, len(gcacc.Engines()))
	}
	if !rep.OK() {
		t.Fatalf("chaos invariant violated — a fault surfaced as a wrong answer:\n%s", rep.Format())
	}
}

// TestConformanceSparse is the million-vertex tier's standing gate: both
// sparse engines (and the sequential baseline) differentially verified
// against union-find — itself cross-checked by an independent BFS
// oracle — over the sparse corpus at n = 10⁵, with every Liu–Tarjan
// variant conformed individually at a smaller size. GCACC_SPARSE_N
// overrides the scale (the 10⁶ runs of EXPERIMENTS.md use it); -short
// drops to 10⁴.
func TestConformanceSparse(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	if env := os.Getenv("GCACC_SPARSE_N"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("GCACC_SPARSE_N=%q: %v", env, err)
		}
		n = v
	}
	rep, err := verify.RunSparse(verify.SparseOptions{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Families) < 6 {
		t.Fatalf("sparse corpus covers %d families, want ≥ 6", len(rep.Families))
	}
	if !rep.OK() {
		t.Fatalf("sparse conformance failures at n=%d:\n%s", n, rep.Format())
	}

	small, err := verify.RunSparse(verify.SparseOptions{N: 2000, Seed: 3, AllVariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if !small.OK() {
		t.Fatalf("variant conformance failures:\n%s", small.Format())
	}
}

// TestConformanceStream is the streaming tier's standing gate: seeded
// mutation traces over every sparse corpus family replayed against the
// incremental union-find fast path, a periodic-full-recompute replica,
// and (at dense scale) a replica whose recompute engine is the GCA
// itself — every query checked against a from-scratch union-find oracle,
// every batch against the epoch counter, and all replicas required to
// agree label for label. A second, smaller run repeats the replay under
// injected mid-batch aborts and failing recompute steps: faults may
// surface as counted transient errors, never as divergence.
// GCACC_STREAM_N overrides the scale; -short drops to 10³.
func TestConformanceStream(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	if env := os.Getenv("GCACC_STREAM_N"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("GCACC_STREAM_N=%q: %v", env, err)
		}
		n = v
	}
	rep, err := verify.RunStream(verify.StreamOptions{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Families) < 8 {
		t.Fatalf("stream corpus covers %d families, want ≥ 8", len(rep.Families))
	}
	if !rep.OK() {
		t.Fatalf("stream conformance failures at n=%d:\n%s", n, rep.Format())
	}

	faulty, err := verify.RunStream(verify.StreamOptions{
		N: 64, Seed: 2,
		FaultSpec: "seed=9,batcherr=0.15,steperr=0.03,stall=0.05:100us",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.OK() {
		t.Fatalf("stream divergence under fault injection:\n%s", faulty.Format())
	}
	errs := 0
	for _, e := range faulty.Engines {
		errs += e.Errors
	}
	if errs == 0 {
		t.Fatal("fault-injected stream run surfaced no faults — it proved nothing")
	}
}

// TestConformanceCluster is the sharded tier's standing gate: the
// corpus replayed through in-process cluster topologies of 1, 2 and 4
// replicas, every request submitted through EVERY replica — most entry
// points are deliberately the wrong shard for the key, so consistent-
// hash routing and proxying sit on the critical path of nearly every
// check. Labels must be bit-identical to the direct
// single-process run and to union-find ground truth regardless of entry
// point, reported owners must match the ring's deterministic placement,
// the corpus-as-one-batch path must agree item for item, and multi-
// replica topologies must show real peer traffic. GCACC_CLUSTER_N
// overrides the corpus budget; -short drops the 4-replica topology.
func TestConformanceCluster(t *testing.T) {
	n := 16
	if env := os.Getenv("GCACC_CLUSTER_N"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("GCACC_CLUSTER_N=%q: %v", env, err)
		}
		n = v
	}
	replicas := []int{1, 2, 4}
	if testing.Short() {
		replicas = []int{1, 2}
	}
	rep, err := verify.RunCluster(verify.ClusterOptions{N: n, Seed: 1, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := len(gcacc.Engines()) * len(replicas)
	if len(rep.Engines) != wantPaths {
		t.Fatalf("harness exercised %d engine/topology pairs, want %d", len(rep.Engines), wantPaths)
	}
	for _, e := range rep.Engines {
		if e.Cases != rep.Cases {
			t.Errorf("engine %s/%s ran %d of %d cases", e.Engine, e.Path, e.Cases, rep.Cases)
		}
	}
	if !rep.OK() {
		t.Fatalf("cluster conformance failures:\n%s", rep.Format())
	}
}

// TestConformancePowerOfTwo pins the paper's closed form at a power-of-two
// size, where 1 + log n · (3·log n + 8) is exact: n = 32 gives log n = 5
// and 116 generations.
func TestConformancePowerOfTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if want := 1 + 5*(3*5+8); gcacc.TotalGenerations(32) != want {
		t.Fatalf("TotalGenerations(32) = %d, want %d", gcacc.TotalGenerations(32), want)
	}
	rep, err := verify.Run(verify.Options{
		N: 32, Seed: 2, Service: false, Metamorphic: false, Oracles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("conformance failures at n=32:\n%s", rep.Format())
	}
}

// TestConformanceSeeds runs the differential and metamorphic checks under
// a couple of extra corpus seeds so the random families (gnp, planted,
// forest) vary.
func TestConformanceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{3, 4} {
		rep, err := verify.Run(verify.Options{
			N: 12, Seed: seed, Service: false, Metamorphic: true, Oracles: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d failures:\n%s", seed, rep.Format())
		}
	}
}

// graphFromFuzzBytes decodes a fuzzer-controlled byte string into a graph:
// the first byte picks n ∈ 1…32, subsequent byte pairs are edges modulo n.
// Every byte string decodes to some valid graph, so the fuzzer explores
// graph space rather than parser error paths.
func graphFromFuzzBytes(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(1)
	}
	n := 1 + int(data[0])%32
	g := graph.New(n)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// FuzzConformanceEdgeList feeds fuzzer-mutated edge lists through the full
// differential check: every engine must agree with union-find, and the GCA
// engine must hit the closed-form generation count, for every input the
// fuzzer can construct.
func FuzzConformanceEdgeList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})                          // n=1
	f.Add([]byte{7, 0, 1, 1, 2, 4, 5})        // small path + pair
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 0, 4}) // star
	f.Add([]byte{31, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		if err := verify.CheckGraph(g, gcacc.Engines()); err != nil {
			t.Fatal(err)
		}
	})
}

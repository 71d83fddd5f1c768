package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcacc/internal/sparse"
	"gcacc/internal/verify"
)

// shuffledWithDuplicates returns g's edge set in a random order, with
// about a quarter of its edges inserted a second time through AddEdge
// (half of those reversed), never canonicalised.
func shuffledWithDuplicates(t *testing.T, g *sparse.Graph, rng *rand.Rand) *sparse.Graph {
	t.Helper()
	edges := append([]sparse.Edge(nil), g.Edges()...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	dups := append([]sparse.Edge(nil), edges[:len(edges)/4]...)
	h, err := sparse.FromEdges(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range dups {
		if i%2 == 0 {
			h.AddEdge(int(e.U), int(e.V))
		} else {
			h.AddEdge(int(e.V), int(e.U))
		}
	}
	return h
}

// TestEnginesIgnoreEdgeOrder pins the contract that lets the engines
// read the edge list as stored: every engine gives the same labels and
// the same round count for a graph in canonical order and for the same
// edge set shuffled with duplicates appended, at one worker and at four.
func TestEnginesIgnoreEdgeOrder(t *testing.T) {
	type engine struct {
		name string
		run  func(g *sparse.Graph, workers int) (sparse.Result, error)
	}
	var engines []engine
	for _, v := range sparse.Variants() {
		engines = append(engines, engine{"liutarjan/" + v.String(), func(g *sparse.Graph, workers int) (sparse.Result, error) {
			return sparse.LiuTarjan(g, sparse.Options{Variant: v, Workers: workers})
		}})
	}
	engines = append(engines,
		engine{"logdiameter", func(g *sparse.Graph, workers int) (sparse.Result, error) {
			return sparse.LogDiameter(g, sparse.Options{Workers: workers})
		}},
		engine{"sequential", func(g *sparse.Graph, _ int) (sparse.Result, error) {
			return sparse.Result{Labels: sparse.ConnectedComponentsUnionFind(g)}, nil
		}})

	graphs := map[string]*sparse.Graph{}
	for _, c := range verify.SparseCorpus(2000, 1) {
		graphs["sparse/"+c.Name] = c.Graph
	}
	for _, c := range verify.Corpus(64, 1) {
		graphs["dense/"+c.Name] = sparse.FromDense(c.Graph)
	}
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{10, 1000, 100_000} {
		graphs[fmt.Sprintf("random/n=%d", n)] = sparse.RandomEdges(n, 2*n, rng)
	}
	graphs["rmat/n=4096"] = sparse.RMAT(12, 1<<13, rng)

	for name, g := range graphs {
		g.Edges() // the canonical form
		shuffled := shuffledWithDuplicates(t, g, rng)
		for _, e := range engines {
			// One canonical reference: TestEnginesDeterministicAcrossWorkers
			// already pins canonical input across worker counts.
			want, err := e.run(g, 1)
			if err != nil {
				t.Fatalf("%s/%s canonical: %v", name, e.name, err)
			}
			for _, workers := range []int{1, 4} {
				got, err := e.run(shuffled, workers)
				if err != nil {
					t.Fatalf("%s/%s/workers=%d shuffled: %v", name, e.name, workers, err)
				}
				if !slices.Equal(got.Labels, want.Labels) {
					t.Fatalf("%s/%s/workers=%d: labels differ between the shuffled and the canonical form",
						name, e.name, workers)
				}
				if got.Rounds != want.Rounds {
					t.Fatalf("%s/%s/workers=%d: %d rounds shuffled, %d canonical",
						name, e.name, workers, got.Rounds, want.Rounds)
				}
			}
		}
		if g.M() > 1 && sparse.Canonical(shuffled) {
			t.Fatalf("%s: an engine run canonicalised the stored edge list", name)
		}
	}
}

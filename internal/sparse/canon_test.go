package sparse

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sortReference is the canonical form by definition: a comparison sort
// on (U, V) followed by dropping adjacent repeats.
func sortReference(edges []Edge) []Edge {
	ref := slices.Clone(edges)
	slices.SortFunc(ref, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return slices.Compact(ref)
}

// randomEdge draws 0 ≤ u < v < hi uniformly.
func randomEdge(hi int, rng *rand.Rand) Edge {
	u, v := int32(rng.Intn(hi)), int32(rng.Intn(hi-1))
	if v >= u {
		v++
	}
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// orderedEdges builds m edges on n vertices in the named order. The
// first edge of every non-narrow input is {0, n−1}, so the top digit of
// each coordinate is exercised.
func orderedEdges(n, m int, order string, rng *rand.Rand) []Edge {
	edges := make([]Edge, m)
	pool := make([]Edge, max(1, m/8))
	for i := range pool {
		pool[i] = randomEdge(max(n, 2), rng)
	}
	for i := range edges {
		switch order {
		case "duplicates":
			edges[i] = pool[rng.Intn(len(pool))]
		case "narrow":
			edges[i] = randomEdge(min(n, 16), rng)
		default:
			edges[i] = randomEdge(n, rng)
		}
	}
	if m > 0 && order != "narrow" {
		edges[0] = Edge{0, int32(n - 1)}
	}
	switch order {
	case "ascending":
		edges = sortReference(edges)
		for len(edges) < m { // keep m edges: repeat the tail
			edges = append(edges, edges[len(edges)-1])
		}
	case "descending":
		edges = sortReference(edges)
		slices.Reverse(edges)
	}
	return edges
}

// TestCanonicaliseMatchesSortReference pins the radix canonicaliser to
// the comparison-sort definition of canonical order across digit-width
// boundaries (n = 128 is one 7-bit digit per coordinate, 129 one 8-bit
// digit, 2²²+1 three 8-bit digits), edge counts and input orders.
func TestCanonicaliseMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 2, 127, 128, 129, 1 << 14, 100_000, 1 << 22, 1<<22 + 1} {
		for _, m := range []int{0, 1, 2, 3 + rng.Intn(20_000)} {
			if n < 2 && m > 0 {
				continue // no edge fits
			}
			for _, order := range []string{"ascending", "descending", "duplicates", "random", "narrow"} {
				name := fmt.Sprintf("n=%d/m=%d/%s", n, m, order)
				edges := orderedEdges(n, m, order, rng)
				want := sortReference(edges)
				g, err := FromEdges(n, edges)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := g.Edges(); !slices.Equal(got, want) {
					t.Fatalf("%s: canonical form differs from the sort reference (%d vs %d edges)",
						name, len(got), len(want))
				}
				if g.M() != len(want) {
					t.Fatalf("%s: M = %d, want %d", name, g.M(), len(want))
				}
			}
		}
	}
}

// TestFromEdgesRejects pins FromEdges' validation: every edge must be
// 0 ≤ U < V < n, which also rules out self-loops.
func TestFromEdgesRejects(t *testing.T) {
	for name, edges := range map[string][]Edge{
		"self-loop":    {{2, 2}},
		"reversed":     {{3, 1}},
		"out-of-range": {{0, 4}},
		"negative":     {{-1, 2}},
	} {
		if _, err := FromEdges(4, edges); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

var canonSink []Edge

// BenchmarkCanonicalise measures the canonical-order pass alone on
// random and already-sorted input, at the sparse-edgelist body size
// (m = 32768 on n = 16384) and at m = 150000 on n = 10⁵.
func BenchmarkCanonicalise(b *testing.B) {
	for _, c := range []struct{ n, m int }{{16384, 32768}, {100_000, 150_000}} {
		rng := rand.New(rand.NewSource(3))
		random := make([]Edge, c.m)
		for i := range random {
			random[i] = randomEdge(c.n, rng)
		}
		for _, in := range []struct {
			name  string
			edges []Edge
		}{{"random", random}, {"sorted", sortReference(random)}} {
			b.Run(fmt.Sprintf("%s/n=%d/m=%d", in.name, c.n, c.m), func(b *testing.B) {
				buf := make([]Edge, len(in.edges))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(buf, in.edges) // timed too: a few µs beside the sort
					g := &Graph{n: c.n, edges: buf}
					g.canonicalise()
					canonSink = g.edges
				}
			})
		}
	}
}

package sparse_test

import (
	"math/rand"
	"testing"

	"gcacc/internal/graph"
	"gcacc/internal/sparse"
	"gcacc/internal/verify"
)

// TestFingerprintOneKey pins the single content key of the serving
// stack: a graph held as an adjacency matrix and the same graph held as
// an edge list have one fingerprint, so the result cache and the cluster
// ring see one key whichever representation a request arrived in. The
// conversions between the two representations are lossless.
func TestFingerprintOneKey(t *testing.T) {
	check := func(name string, d *graph.Graph, sp *sparse.Graph) {
		t.Helper()
		if got, want := sp.Fingerprint(), d.Fingerprint(); got != want {
			t.Errorf("%s: edge-list fingerprint %x, dense fingerprint %x", name, got[:8], want[:8])
		}
		if !sparse.FromDense(d).Equal(sp) {
			t.Errorf("%s: FromDense does not reproduce the edge list", name)
		}
		back, err := sp.ToDense()
		if err != nil {
			t.Fatalf("%s: ToDense: %v", name, err)
		}
		if !back.Equal(d) {
			t.Errorf("%s: ToDense does not reproduce the dense graph", name)
		}
	}
	for _, n := range []int{4, 16, 63, 64, 65, 130} {
		for _, c := range verify.Corpus(n, int64(n)) {
			check(c.Name, c.Graph, sparse.FromDense(c.Graph))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		n := rng.Intn(300)
		sp := sparse.RandomEdges(n, rng.Intn(3*n+1), rng)
		d, err := sp.ToDense()
		if err != nil {
			t.Fatal(err)
		}
		check("random", d, sp)
	}
}

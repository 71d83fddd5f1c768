package stream

// Environment-gated wall-clock gate, run by `make bench-smoke` with
// GCACC_BENCH_SMOKE=1 (plain `go test ./...` skips it: timing gates are
// meaningless under -race or on a loaded machine).

import (
	"context"
	"os"
	"testing"
	"time"

	"gcacc"
	"gcacc/internal/sparse"
)

// TestBenchSmokeStreamRecompute fails the build if a dirty query costs
// much more than the Liu–Tarjan run inside it. The recompute is meant to
// be one Θ(n+m) engine run plus Θ(n+m) bookkeeping (gathering the live
// set, rebuilding the forest, the labelling), so best of seven of each
// must stay within 3×; a comparison sort on the way in breaks that.
func TestBenchSmokeStreamRecompute(t *testing.T) {
	if os.Getenv("GCACC_BENCH_SMOKE") == "" {
		t.Skip("set GCACC_BENCH_SMOKE=1 to run wall-clock smoke gates (make bench-smoke)")
	}
	const n, reps, ceiling = 100_000, 7, 3.0
	ctx := context.Background()
	st, err := NewState(n, Config{Engine: gcacc.EngineLiuTarjan})
	if err != nil {
		t.Fatal(err)
	}
	edges := benchEdges(n, 2*n)
	if _, err := st.Append(ctx, edges, NoEpoch); err != nil {
		t.Fatal(err)
	}

	recompute := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		// Dirty the graph: delete and re-append one edge.
		e := edges[r]
		if _, err := st.Delete(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(ctx, []sparse.Edge{e}, NoEpoch); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		snap, err := st.Components(ctx)
		if err != nil {
			t.Fatal(err)
		}
		recompute = min(recompute, time.Since(start))
		if !snap.Recomputed {
			t.Fatal("query was not a recompute")
		}
	}

	// The same live edges, in the order the recompute sees them.
	live := make([]sparse.Edge, 0, len(st.live))
	for e := range st.live {
		live = append(live, e)
	}
	g, err := sparse.FromEdges(n, live)
	if err != nil {
		t.Fatal(err)
	}
	engine := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := sparse.LiuTarjan(g, sparse.Options{Variant: sparse.DefaultVariant}); err != nil {
			t.Fatal(err)
		}
		engine = min(engine, time.Since(start))
	}

	ratio := float64(recompute) / float64(engine)
	t.Logf("n=%d m=%d: dirty query %v, Liu–Tarjan run %v (%.1f×, ceiling %.0f×)",
		n, len(live), recompute, engine, ratio, ceiling)
	if ratio > ceiling {
		t.Fatalf("dirty query (%v) costs %.1f× the Liu–Tarjan run over the same edges (%v); ceiling %.0f×",
			recompute, ratio, engine, ceiling)
	}
}

package sparse

import (
	"context"
	"fmt"

	"gcacc/internal/gca"
)

// LogDiameter implements a deterministic adaptation of the
// Liu–Tarjan–Zhong algorithm ("Connected Components on a PRAM in Log
// Diameter Time", PAPERS.md): rounds of hook (every edge proposes its
// smaller endpoint-label as the parent of its larger endpoint-label),
// full shortcut (pointer jumping repeated until the parent map is
// idempotent, so labels are roots again), and alteration (edges rewritten
// to their endpoint labels, self-loops dropped). The paper's algorithm
// randomises hook direction and adds expander-style edges to finish in
// O(log d) time w.h.p.; this adaptation replaces both random choices
// with the minimum-label rule, trading the high-probability bound for a
// deterministic O(log n) worst case — after each round the label of any
// vertex at distance 2k from its component minimum has distance ≤ k,
// because hooking flattens one edge level and the full shortcut
// collapses chains entirely. Determinism is the repo-wide requirement
// (content-addressed cache, conformance fuzzing), which is why the
// randomised version is out of bounds here; the round structure, the
// contraction argument and the Θ(n + m) work per round are the paper's.
//
// Compared to LiuTarjan above, the full shortcut makes labels roots at
// every round boundary, so each hook spans a whole contracted component
// rather than a single chain link — fewer, heavier rounds, the classic
// PRAM trade.
func LogDiameter(g *Graph, opt Options) (Result, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	ld := &ldRun{
		hooks:   opt.Hooks,
		pool:    newPool(opt.Workers),
		labels:  make([]int32, n),
		scratch: make([]int32, n),
	}
	defer ld.pool.close()
	ld.changed = make([]int32, ld.pool.workers)
	for v := range ld.labels {
		ld.labels[v] = int32(v)
	}
	// Hook and alter both rewrite state derived from the edge list; work
	// on a copy so the caller's graph survives.
	ld.edges = append([]Edge(nil), g.edges...)

	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progress, err := ld.step(rounds)
		if err != nil {
			return Result{}, err
		}
		rounds++
		if !progress {
			break
		}
		if rounds > 2*n+4 {
			return Result{}, fmt.Errorf("sparse: logdiameter failed to converge after %d rounds", rounds)
		}
	}
	return Result{Labels: widen(ld.labels), Rounds: rounds}, nil
}

type ldRun struct {
	hooks   gca.StepHooks
	pool    *pool
	edges   []Edge
	labels  []int32
	scratch []int32
	changed []int32
	tick    int64
}

// step executes one hook + full-shortcut + alter round and reports
// whether anything changed.
func (ld *ldRun) step(round int) (bool, error) {
	hctx := gca.Context{Generation: round, Iteration: round, Tick: ld.tick}
	if ld.hooks.BeforeStep != nil {
		if err := ld.hooks.BeforeStep(hctx); err != nil {
			return false, err
		}
	}

	// Hook: labels are roots (the previous round's full shortcut made the
	// map idempotent), and after alteration every edge joins two labels
	// directly, so each proposal hooks a whole contracted component under
	// a smaller-labelled one via atomic minimum.
	prev, out := ld.labels, ld.scratch
	copy(out, prev)
	ld.clearChanged()
	edges := ld.edges
	ld.parallel(hctx, 0, len(edges), func(worker, lo, hi int) {
		hit := false
		for _, e := range edges[lo:hi] {
			lu, lv := prev[e.U], prev[e.V]
			if lu < lv {
				hit = atomicMin(out, int(lv), lu) || hit
			} else if lv < lu {
				hit = atomicMin(out, int(lu), lv) || hit
			}
		}
		if hit {
			ld.changed[worker] = 1
		}
	})
	progress := ld.anyChanged()
	ld.labels, ld.scratch = ld.scratch, ld.labels

	// Full shortcut: pointer-jump until the label map is idempotent.
	// Each jump at least halves every chain, so the sub-loop runs
	// O(log n) times; hctx.Sub counts the jumps for the fault hooks.
	for sub := 0; ; sub++ {
		hctx.Sub = sub
		cur, next := ld.labels, ld.scratch
		ld.clearChanged()
		ld.parallel(hctx, 0, len(cur), func(worker, lo, hi int) {
			if shortcutRange(cur, next, lo, hi) {
				ld.changed[worker] = 1
			}
		})
		ld.labels, ld.scratch = ld.scratch, ld.labels
		if !ld.anyChanged() {
			break
		}
		progress = true
	}
	hctx.Sub = 0

	// Alter: contract edges onto the (now root) labels, dropping
	// self-loops; the edge list only ever shrinks.
	if progress {
		labels := ld.labels
		ld.parallel(hctx, 0, len(edges), func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				u, v := labels[edges[i].U], labels[edges[i].V]
				if u > v {
					u, v = v, u
				}
				edges[i] = Edge{u, v}
			}
		})
		kept := edges[:0]
		for _, e := range edges {
			if e.U != e.V {
				kept = append(kept, e)
			}
		}
		ld.edges = kept
	}
	return progress, nil
}

func (ld *ldRun) parallel(hctx gca.Context, lo, hi int, f func(worker, lo, hi int)) {
	ld.tick++
	stall := ld.hooks.WorkerStall
	ld.pool.run(hi-lo, func(worker, jlo, jhi int) {
		if stall != nil {
			stall(hctx, worker)
		}
		f(worker, lo+jlo, lo+jhi)
	})
}

func (ld *ldRun) clearChanged() {
	for i := range ld.changed {
		ld.changed[i] = 0
	}
}

func (ld *ldRun) anyChanged() bool {
	for _, c := range ld.changed {
		if c != 0 {
			return true
		}
	}
	return false
}

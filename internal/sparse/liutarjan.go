package sparse

import (
	"context"
	"fmt"
	"sync/atomic"

	"gcacc/internal/gca"
)

// The Liu–Tarjan simple concurrent labeling algorithms (PAPERS.md:
// "Simple Concurrent Labeling Algorithms for Connected Components")
// maintain a label per vertex and repeat rounds of connect (propagate
// smaller labels across edges), shortcut (pointer-jump every label one
// step), and optionally alter (rewrite each edge to its endpoints'
// current labels and drop the resulting self-loops) until nothing
// changes. This file implements the framework's variant space with one
// determinism refinement over the paper's CRCW model: concurrent label
// proposals combine through an atomic minimum, which is commutative and
// associative, so the labels after every phase — and therefore the whole
// run — are bit-identical for any worker count and any schedule. That
// property is load-bearing: the serving layer's content-addressed cache
// and the conformance fuzzer both assume engines are pure functions of
// the input.
//
// Invariants (same argument as the paper's): labels only decrease, every
// label is a vertex of its own component, and the component minimum m
// keeps label m forever. A round with no change means every edge has
// equal endpoint labels and the label map is idempotent, which forces
// every label to equal its component minimum — the facade's labelling
// convention. Termination: any round that is not a fixpoint strictly
// decreases the label sum. On a path the connect+shortcut pair more than
// doubles each vertex's label distance per round, so convergence is
// O(log n) rounds on the corpus adversaries, matching the paper's
// experiments.

// Variant selects a point in the Liu–Tarjan connect/alter variant space.
// The zero value is parent-connect without alteration (the paper's "P").
type Variant struct {
	// Extended also hooks each endpoint's current label vertex to the
	// other endpoint's label (the paper's extended-connect "E"),
	// shortening label chains one round earlier at the cost of two extra
	// atomic-min proposals per edge.
	Extended bool
	// Alter rewrites each edge to its endpoints' labels after the
	// shortcut phase and drops self-loops (the paper's "A" suffix), so
	// the edge scan shrinks as components coalesce.
	Alter bool
}

// DefaultVariant is extended-connect with alteration ("ea"), the
// strongest variant in the paper's experiments and the one the facade
// engine runs.
var DefaultVariant = Variant{Extended: true, Alter: true}

// String returns the variant's short name: "p", "e", "pa" or "ea".
func (v Variant) String() string {
	s := "p"
	if v.Extended {
		s = "e"
	}
	if v.Alter {
		s += "a"
	}
	return s
}

// ParseVariant parses a short variant name.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("sparse: unknown Liu–Tarjan variant %q (have p, e, pa, ea)", s)
}

// Variants enumerates the implemented variant space.
func Variants() []Variant {
	return []Variant{
		{},
		{Extended: true},
		{Alter: true},
		{Extended: true, Alter: true},
	}
}

// Options configures a sparse engine run. The zero value runs with
// background context, GOMAXPROCS workers, no hooks and DefaultVariant
// semantics left to each engine's Run.
type Options struct {
	// Ctx is checked between rounds; cancellation aborts with ctx.Err().
	Ctx context.Context
	// Workers is the pool size (GOMAXPROCS when ≤ 0). Results are
	// bit-identical for every value.
	Workers int
	// Hooks receive the same fault-injection points as the GCA stepping
	// engine: BeforeStep before each round's first mutation (an error
	// aborts the run with labels untouched since the previous round) and
	// WorkerStall per worker per parallel phase (pure delay).
	Hooks gca.StepHooks
	// Variant selects the Liu–Tarjan variant (LiuTarjan engine only).
	Variant Variant
}

// Result is a sparse engine's output.
type Result struct {
	// Labels maps each vertex to the smallest vertex index of its
	// component.
	Labels []int
	// Rounds is the number of connect/shortcut(/alter) rounds executed,
	// the sparse analogue of the dense engines' generation count.
	Rounds int
}

// LiuTarjan runs the selected Liu–Tarjan variant over g.
func LiuTarjan(g *Graph, opt Options) (Result, error) {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	lt := &ltRun{
		variant: opt.Variant,
		hooks:   opt.Hooks,
		pool:    newPool(opt.Workers),
		labels:  make([]int32, n),
		scratch: make([]int32, n),
	}
	defer lt.pool.close()
	lt.changed = make([]int32, lt.pool.workers)
	for v := range lt.labels {
		lt.labels[v] = int32(v)
	}
	lt.edges = g.edges // any order and duplicates: see the package comment
	if lt.variant.Alter {
		// Alter mutates the edge list; work on a copy so the caller's
		// graph survives.
		lt.edges = append([]Edge(nil), lt.edges...)
	}

	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progress, err := lt.step(rounds)
		if err != nil {
			return Result{}, err
		}
		rounds++
		if !progress {
			break
		}
		if rounds > 2*n+4 {
			return Result{}, fmt.Errorf("sparse: liutarjan/%s failed to converge after %d rounds", lt.variant, rounds)
		}
	}
	return Result{Labels: widen(lt.labels), Rounds: rounds}, nil
}

// ltRun is the per-run state of a Liu–Tarjan execution.
type ltRun struct {
	variant Variant
	hooks   gca.StepHooks
	pool    *pool
	edges   []Edge
	labels  []int32 // committed labels (prev at phase entry)
	scratch []int32 // double buffer the phases write into
	changed []int32 // per-worker progress flags, OR'd after each phase
	tick    int64
}

// step executes one connect + shortcut (+ alter) round and reports
// whether any label changed. The BeforeStep hook runs first and may
// abort the round before any mutation.
func (lt *ltRun) step(round int) (bool, error) {
	hctx := gca.Context{Generation: round, Iteration: round, Tick: lt.tick}
	if lt.hooks.BeforeStep != nil {
		if err := lt.hooks.BeforeStep(hctx); err != nil {
			return false, err
		}
	}

	// Connect: propose smaller labels across every edge into the scratch
	// buffer via atomic minimum; prev stays immutable for the phase.
	prev, out := lt.labels, lt.scratch
	copy(out, prev)
	lt.clearChanged()
	extended := lt.variant.Extended
	edges := lt.edges
	lt.parallel(hctx, 0, len(edges), func(worker, lo, hi int) {
		hit := false
		for _, e := range edges[lo:hi] {
			lu, lv := prev[e.U], prev[e.V]
			if lu == lv {
				continue
			}
			if lu < lv {
				hit = atomicMin(out, int(e.V), lu) || hit
				if extended {
					hit = atomicMin(out, int(lv), lu) || hit
				}
			} else {
				hit = atomicMin(out, int(e.U), lv) || hit
				if extended {
					hit = atomicMin(out, int(lu), lv) || hit
				}
			}
		}
		if hit {
			lt.changed[worker] = 1
		}
	})
	progress := lt.anyChanged()
	lt.labels, lt.scratch = lt.scratch, lt.labels

	// Shortcut: one pointer jump per vertex, reading the committed
	// buffer and writing the other — the package's one cur/next kernel.
	cur, next := lt.labels, lt.scratch
	lt.clearChanged()
	lt.parallel(hctx, 0, len(cur), func(worker, lo, hi int) {
		if shortcutRange(cur, next, lo, hi) {
			lt.changed[worker] = 1
		}
	})
	progress = lt.anyChanged() || progress
	lt.labels, lt.scratch = lt.scratch, lt.labels

	if lt.variant.Alter && progress {
		lt.alter(hctx)
	}
	return progress, nil
}

// parallel runs f over [lo, hi) on the pool, delivering the WorkerStall
// hook to each worker first.
func (lt *ltRun) parallel(hctx gca.Context, lo, hi int, f func(worker, lo, hi int)) {
	lt.tick++
	stall := lt.hooks.WorkerStall
	lt.pool.run(hi-lo, func(worker, jlo, jhi int) {
		if stall != nil {
			stall(hctx, worker)
		}
		f(worker, lo+jlo, lo+jhi)
	})
}

// alter rewrites every edge to its endpoints' current labels and drops
// self-loops. The rewrite is parallel (disjoint indices); the compaction
// is a sequential order-preserving filter, so the surviving edge order —
// and with it every later phase — is deterministic.
func (lt *ltRun) alter(hctx gca.Context) {
	labels := lt.labels
	edges := lt.edges
	lt.parallel(hctx, 0, len(edges), func(worker, lo, hi int) {
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
	lt.edges = kept
}

func (lt *ltRun) clearChanged() {
	for i := range lt.changed {
		lt.changed[i] = 0
	}
}

func (lt *ltRun) anyChanged() bool {
	for _, c := range lt.changed {
		if c != 0 {
			return true
		}
	}
	return false
}

// shortcutRange applies next[v] = cur[cur[v]] over [lo, hi) and reports
// whether any label moved. cur is read-only, next is write-only: the
// buffer discipline every kernel in the repo follows.
func shortcutRange(cur, next []int32, lo, hi int) bool {
	hit := false
	for v := lo; v < hi; v++ {
		l := cur[cur[v]]
		next[v] = l
		if l != cur[v] {
			hit = true
		}
	}
	return hit
}

// atomicMin lowers arr[i] to v if v is smaller, reporting whether it
// changed the slot. Minimum is commutative and associative, so any set
// of concurrent proposals leaves the same value regardless of order —
// the determinism anchor for every parallel phase here.
func atomicMin(arr []int32, i int, v int32) bool {
	for {
		old := atomic.LoadInt32(&arr[i])
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(&arr[i], old, v) {
			return true
		}
	}
}

// widen converts int32 labels to the facade's []int convention.
func widen(labels []int32) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

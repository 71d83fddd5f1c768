package verify

import (
	"context"
	"fmt"
	"sort"

	"gcacc"
	"gcacc/internal/cluster"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// ClusterOptions configures the cluster conformance harness: the shared
// corpus replayed through in-process multi-replica topologies.
type ClusterOptions struct {
	// N is the corpus size budget (vertices per instance); < 4 clamps
	// to 4.
	N int
	// Seed drives the corpus families; (N, Seed) reproduces a run.
	Seed int64
	// Replicas are the topology sizes to conform; nil selects {1, 2, 4}.
	Replicas []int
	// Engines are the engines to conform; nil selects all of them.
	Engines []gcacc.Engine
	// Workers is the simulator goroutine budget per service (< 1 =
	// GOMAXPROCS).
	Workers int
}

// DefaultClusterOptions conforms every engine over 1-, 2- and 4-replica
// topologies at a small corpus size.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{N: 16, Seed: 1}
}

// RunCluster replays the conformance corpus through in-process cluster
// topologies and holds every answer to the single-process truth.
//
// The routing contract under test: every request is submitted through
// EVERY replica of each topology — most of those entry points are
// deliberately the wrong shard for the key, so the proxy path is on
// the critical path of almost every check. Whatever replica a request
// enters through, the labels must be bit-identical to the direct
// single-process engine run and to the union-find ground truth, the
// reported owner must be the ring's deterministic placement, and (for
// R > 1) peer traffic must actually have flowed — a topology that
// silently served everything locally fails the harness even if the
// labels agree.
//
// The batch path is conformed the same way: the whole corpus goes
// through SubmitBatch as one batch per topology (with a deliberate
// duplicate to pin in-batch coalescing), and every per-item outcome
// must match the truth.
func RunCluster(opt ClusterOptions) (*Report, error) {
	if opt.N < 4 {
		opt.N = 4
	}
	replicas := opt.Replicas
	if len(replicas) == 0 {
		replicas = []int{1, 2, 4}
	}
	for _, r := range replicas {
		if r < 1 {
			return nil, fmt.Errorf("verify: replica count %d < 1", r)
		}
	}
	engines := opt.Engines
	if len(engines) == 0 {
		engines = gcacc.Engines()
	}
	for _, e := range engines {
		if !e.Valid() {
			return nil, fmt.Errorf("verify: invalid engine %d", int(e))
		}
	}

	cases := Corpus(opt.N, opt.Seed)
	rep := &Report{N: opt.N, Seed: opt.Seed, Families: Families(cases), Cases: len(cases)}

	// Single-process reference labellings, shared by every topology. The
	// cluster receives each case as the edge list a parsed request body
	// yields.
	truth := make([][]int, len(cases))
	edges := make([]*sparse.Graph, len(cases))
	reference := make(map[gcacc.Engine][][]int, len(engines))
	for ci, c := range cases {
		truth[ci] = graph.ConnectedComponentsUnionFind(c.Graph)
		edges[ci] = sparse.FromDense(c.Graph)
		rep.Checks++
		if !graph.IsValidComponentLabelling(c.Graph, truth[ci]) {
			rep.Failures = append(rep.Failures, Failure{
				Case: c.Name, Check: "ground-truth",
				Detail: "union-find labelling failed the independent validator",
			})
		}
	}
	for _, e := range engines {
		refs := make([][]int, len(cases))
		for ci, c := range cases {
			r, err := gcacc.ConnectedComponentsWith(c.Graph, gcacc.Options{Engine: e, Workers: opt.Workers})
			if err != nil {
				return nil, fmt.Errorf("verify: single-process reference %s on %s: %w", e, c.Name, err)
			}
			refs[ci] = r.Labels
		}
		reference[e] = refs
	}

	sort.Ints(replicas)
	for _, r := range replicas {
		if err := runClusterTopology(opt, r, engines, cases, edges, truth, reference, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runClusterTopology conforms one R-replica topology.
func runClusterTopology(opt ClusterOptions, r int, engines []gcacc.Engine, cases []Case, edges []*sparse.Graph,
	truth [][]int, reference map[gcacc.Engine][][]int, rep *Report) error {
	top, err := cluster.NewInProcessTopology(r, service.Config{
		Workers:     2,
		QueueDepth:  64,
		SimWorkers:  opt.Workers,
		MaxVertices: 2*opt.N + 8,
	}, cluster.Config{})
	if err != nil {
		return fmt.Errorf("verify: building %d-replica topology: %w", r, err)
	}
	defer top.Close()

	path := fmt.Sprintf("cluster-r%d", r)
	ctx := context.Background()

	for _, e := range engines {
		s := EngineSummary{Engine: e.String(), Path: path}
		for ci, c := range cases {
			s.Cases++
			check := func(ok bool, name, detail string, args ...any) {
				rep.Checks++
				s.Checks++
				if !ok {
					s.Failures++
					rep.Failures = append(rep.Failures, Failure{
						Case: c.Name, Engine: e.String() + "/" + path,
						Check: name, Detail: fmt.Sprintf(detail, args...),
					})
				}
			}

			wantOwner := top.Nodes[0].Owner(edges[ci].Fingerprint())
			// Every replica is an entry point — for R > 1 most of them do
			// not own the key, so the request must survive being sent to
			// the wrong shard.
			for _, node := range top.Nodes {
				res, err := node.Submit(ctx, service.Request{Edges: edges[ci], Engine: e})
				if err != nil {
					check(false, "cluster/submit", "entry node %d: %v", node.Self(), err)
					continue
				}
				check(labelsEqual(res.Labels, truth[ci]), "cluster/differential",
					"entry node %d: labelling deviates from union-find: %s",
					node.Self(), diffLabels(res.Labels, truth[ci]))
				check(labelsEqual(res.Labels, reference[e][ci]), "cluster/single-process",
					"entry node %d: labelling deviates from the single-process path: %s",
					node.Self(), diffLabels(res.Labels, reference[e][ci]))
				check(res.Components == graph.ComponentCount(truth[ci]), "cluster/differential",
					"entry node %d: component count %d, ground truth %d",
					node.Self(), res.Components, graph.ComponentCount(truth[ci]))
				check(res.Owner == wantOwner, "cluster/placement",
					"entry node %d reports owner %d, ring places the key at %d",
					node.Self(), res.Owner, wantOwner)
			}
		}
		rep.Engines = append(rep.Engines, s)
	}

	topCheck := func(ok bool, name, detail string, args ...any) {
		rep.Checks++
		if !ok {
			rep.Failures = append(rep.Failures, Failure{
				Case: path, Check: name, Detail: fmt.Sprintf(detail, args...),
			})
		}
	}

	// Batch path: the whole corpus as one batch through replica 0, plus a
	// duplicate of case 0 to pin in-batch coalescing.
	items := make([]cluster.BatchItem, 0, len(cases)+1)
	for _, g := range edges {
		items = append(items, cluster.BatchItem{Edges: g})
	}
	items = append(items, cluster.BatchItem{Edges: edges[0]})
	outs, err := top.Nodes[0].SubmitBatch(ctx, items)
	if err != nil {
		return fmt.Errorf("verify: %s batch: %w", path, err)
	}
	for i, oc := range outs {
		ci := i
		if i == len(cases) {
			ci = 0
		}
		topCheck(oc.Err == nil, "cluster/batch", "item %d (%s): %v", i, cases[ci].Name, oc.Err)
		if oc.Err != nil {
			continue
		}
		topCheck(labelsEqual(oc.Result.Labels, truth[ci]), "cluster/batch",
			"item %d (%s): labelling deviates from union-find: %s",
			i, cases[ci].Name, diffLabels(oc.Result.Labels, truth[ci]))
	}
	if outs[len(cases)].Err == nil {
		topCheck(outs[len(cases)].Result.Coalesced, "cluster/batch-dedup",
			"duplicate batch item was not coalesced")
	}

	// Peer-traffic liveness: a multi-replica topology that never talked
	// to a peer conformed nothing.
	if r > 1 {
		var routed, served int64
		for _, s := range top.Stats() {
			routed += s.RoutedRemote
			served += s.PeerServed
		}
		topCheck(routed > 0, "cluster/traffic", "no request was routed to a remote owner")
		topCheck(served > 0, "cluster/traffic", "no replica served a peer call")
	}
	return nil
}

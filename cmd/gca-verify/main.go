// Command gca-verify runs the cross-engine conformance harness
// (internal/verify) over the deterministic graph corpus and prints a
// machine-readable report.
//
//	gca-verify -n 64 -seed 1
//	gca-verify -n 128 -engines gca,pram -no-service -format text
//	gca-verify -sparse-n 1000000 -format text
//
// Every engine (and, unless -no-service is given, the serving-layer path)
// runs every corpus case; labellings are checked against the union-find
// ground truth, metamorphic invariants (vertex relabelling, edge order,
// intra-component edges, disjoint union) and the paper's analytic oracles
// (closed-form generation count, Table-1 read/congestion totals, canonical
// schedule). Exit status 0 means every check passed; 1 means at least one
// conformance failure (the report lists each one); 2 means the harness
// itself could not run.
//
// With -sparse-n the sparse harness runs instead: the edge-list engines
// (liutarjan with all its variants, logdiameter) and the sequential
// baseline over the sparse corpus (paths, stars, random m=2n, RMAT,
// planted forests) against union-find, at sizes far beyond the dense
// corpus — n = 10⁶ completes in seconds.
//
// With -stream-n the stream harness runs instead (verify.RunStream):
// seeded mutation traces over the sparse corpus replayed against the
// incremental streaming state, a periodic-full-recompute replica and a
// dense GCA-recompute replica, every query checked against a
// from-scratch union-find oracle. -fault replays the same traces under
// injected mid-batch aborts and recompute-step faults:
//
//	gca-verify -stream-n 10000 -format text
//	gca-verify -stream-n 1000 -fault seed=9,batcherr=0.1,steperr=0.02
//
// With -cluster-replicas the cluster harness runs instead
// (verify.RunCluster): the conformance corpus replayed through
// in-process multi-replica topologies, every request submitted through
// every replica — including deliberately wrong shards — with labels
// held bit-identical to the single-process path and the union-find
// ground truth, owners checked against the ring's deterministic
// placement, and the batch path conformed item for item:
//
//	gca-verify -cluster-replicas 1,2,4 -format text
//	gca-verify -cluster-replicas 2 -engines gca
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gcacc"
	"gcacc/internal/verify"
)

func main() {
	var (
		n           = flag.Int("n", 64, "corpus size budget (vertices per instance)")
		seed        = flag.Int64("seed", 1, "corpus and metamorphic seed")
		enginesCSV  = flag.String("engines", "", "comma-separated engine subset (default: all of "+strings.Join(gcacc.EngineNames(), ",")+")")
		noService   = flag.Bool("no-service", false, "skip the serving-layer path")
		noMeta      = flag.Bool("no-metamorphic", false, "skip the metamorphic invariant checks")
		noOracles   = flag.Bool("no-oracles", false, "skip the analytic Table-1/Table-2 oracle checks")
		faultSpec   = flag.String("fault", "", "add the fault-injected service path with this schedule (e.g. seed=7,steperr=0.01,stepdelay=0.05:200us,stall=0.02:1ms)")
		workers     = flag.Int("workers", 0, "simulator goroutines per run (0 = GOMAXPROCS)")
		format      = flag.String("format", "json", "report format: json|text")
		failuresCap = flag.Int("max-failures", 0, "truncate the failure list in the report (0 = keep all)")
		sparseN     = flag.Int("sparse-n", 0, "run the sparse harness at this vertex budget instead (edge-list engines vs union-find)")
		noVariants  = flag.Bool("no-variants", false, "sparse harness: skip the per-variant Liu–Tarjan runs")
		streamN     = flag.Int("stream-n", 0, "run the stream harness at this vertex budget instead (mutation traces vs union-find oracle)")
		clusterCSV  = flag.String("cluster-replicas", "", "run the cluster harness instead over these comma-separated replica counts (e.g. 1,2,4)")
	)
	flag.Parse()

	if *clusterCSV != "" {
		opt := verify.ClusterOptions{N: *n, Seed: *seed, Workers: *workers}
		for _, s := range strings.Split(*clusterCSV, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || r < 1 {
				fmt.Fprintf(os.Stderr, "gca-verify: -cluster-replicas: bad replica count %q\n", s)
				os.Exit(2)
			}
			opt.Replicas = append(opt.Replicas, r)
		}
		if *enginesCSV != "" {
			for _, name := range strings.Split(*enginesCSV, ",") {
				e, err := gcacc.ParseEngine(strings.TrimSpace(name))
				if err != nil {
					fmt.Fprintln(os.Stderr, "gca-verify:", err)
					os.Exit(2)
				}
				opt.Engines = append(opt.Engines, e)
			}
		}
		rep, err := verify.RunCluster(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gca-verify:", err)
			os.Exit(2)
		}
		emit(rep, *format, *failuresCap)
		return
	}

	if *streamN > 0 {
		rep, err := verify.RunStream(verify.StreamOptions{
			N: *streamN, Seed: *seed, Workers: *workers, FaultSpec: *faultSpec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gca-verify:", err)
			os.Exit(2)
		}
		emit(rep, *format, *failuresCap)
		return
	}

	if *sparseN > 0 {
		rep, err := verify.RunSparse(verify.SparseOptions{
			N: *sparseN, Seed: *seed, Workers: *workers, AllVariants: !*noVariants,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gca-verify:", err)
			os.Exit(2)
		}
		emit(rep, *format, *failuresCap)
		return
	}

	opt := verify.Options{
		N:           *n,
		Seed:        *seed,
		Service:     !*noService,
		Metamorphic: !*noMeta,
		Oracles:     !*noOracles,
		FaultSpec:   *faultSpec,
		Workers:     *workers,
	}
	if *enginesCSV != "" {
		for _, name := range strings.Split(*enginesCSV, ",") {
			e, err := gcacc.ParseEngine(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "gca-verify:", err)
				os.Exit(2)
			}
			opt.Engines = append(opt.Engines, e)
		}
	}

	rep, err := verify.Run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gca-verify:", err)
		os.Exit(2)
	}
	emit(rep, *format, *failuresCap)
}

// emit prints the report in the requested format and exits non-zero on
// conformance failures.
func emit(rep *verify.Report, format string, failuresCap int) {
	if failuresCap > 0 && len(rep.Failures) > failuresCap {
		rep.Failures = rep.Failures[:failuresCap]
	}

	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "gca-verify: encoding report:", err)
			os.Exit(2)
		}
	case "text":
		fmt.Print(rep.Format())
	default:
		fmt.Fprintf(os.Stderr, "gca-verify: unknown format %q (json|text)\n", format)
		os.Exit(2)
	}

	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "gca-verify: %d conformance failure(s)\n", len(rep.Failures))
		os.Exit(1)
	}
}

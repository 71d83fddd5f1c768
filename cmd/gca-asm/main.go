// Command gca-asm runs a GCA rule-language program (see internal/gcasm):
//
//	gca-asm -list                          # print the embedded Hirschberg program
//	gca-asm -in graph.el                   # run it on a graph (edge-list)
//	gca-asm -program rules.gca -cells 16 -n 4 -data 3,1,0,2,...   # raw field
//	gca-asm -program rules.gca -check -n 8 # statically verify, don't run
//
// With -in, the program is assumed to use the paper's (n+1)×n field
// contract (adjacency in the square cells' a fields, result in column 0).
// With -cells, the field is raw: -data seeds the d fields and the final
// field is printed.
//
// With -check, the program is statically verified (internal/gcasm/check:
// CRCW write conflicts, unknown registers, schedule defects, unreachable
// rules, out-of-range pointers) instead of executed. Exit status: 0 when
// the program is clean, 1 when the verifier reported findings or the
// program failed to parse, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gcacc/internal/gca"
	"gcacc/internal/gcasm"
	"gcacc/internal/gcasm/check"
	"gcacc/internal/graph"
)

func main() {
	var (
		programPath = flag.String("program", "", "program file (default: embedded Hirschberg)")
		list        = flag.Bool("list", false, "print the program source and generation list, then exit")
		in          = flag.String("in", "", "graph file for the Hirschberg field contract")
		format      = flag.String("format", "edges", "graph format: edges|matrix")
		cells       = flag.Int("cells", 0, "raw field size (alternative to -in)")
		n           = flag.Int("n", 0, "problem size for raw fields (defaults to -cells)")
		data        = flag.String("data", "", "comma-separated initial d values for raw fields")
		stats       = flag.Bool("stats", false, "print per-generation statistics")
		checkOnly   = flag.Bool("check", false, "statically verify the program and exit (no execution)")
	)
	flag.Parse()

	src := gcasm.HirschbergSource
	if *programPath != "" {
		b, err := os.ReadFile(*programPath)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}

	if *checkOnly {
		// The verifier runs on the permissive AST so that programs the
		// compiler rejects outright (CRCW conflicts) still get positioned
		// diagnostics. The default contract is the embedded program's
		// n·(n+1) field; -n and -cells adjust it.
		nn := *n
		if nn <= 0 {
			nn = 8
		}
		ds, err := check.VerifySource(src, check.Options{N: nn, Cells: *cells})
		if err != nil {
			fatal(err)
		}
		for _, d := range ds {
			fmt.Println(d)
		}
		if len(ds) > 0 {
			fmt.Fprintf(os.Stderr, "gca-asm: %d finding(s)\n", len(ds))
			os.Exit(1)
		}
		return
	}

	prog, err := gcasm.Parse(src)
	if err != nil {
		fatal(err)
	}

	if *list {
		fmt.Print(src)
		fmt.Println("\n# generations:", strings.Join(prog.Generations(), ", "))
		return
	}

	switch {
	case *in != "":
		g, err := readGraph(*in, *format)
		if err != nil {
			fatal(err)
		}
		nn := g.N()
		field := gca.NewField(nn * (nn + 1))
		adj := g.Adjacency()
		for j := 0; j < nn; j++ {
			for i := 0; i < nn; i++ {
				if adj.Get(j, i) {
					field.SetCell(j*nn+i, gca.Cell{A: 1})
				}
			}
		}
		res, err := prog.Run(gcasm.RunConfig{N: nn, Field: field, CollectStats: *stats})
		if err != nil {
			fatal(err)
		}
		for j := 0; j < nn; j++ {
			fmt.Printf("%d %d\n", j, field.Data(j*nn))
		}
		fmt.Printf("# generations=%d\n", res.Generations)
		printStats(res, *stats)

	case *cells > 0:
		size := *cells
		nn := *n
		if nn <= 0 {
			nn = size
		}
		field := gca.NewField(size)
		if *data != "" {
			parts := strings.Split(*data, ",")
			if len(parts) != size {
				fatal(fmt.Errorf("-data has %d values for %d cells", len(parts), size))
			}
			for i, p := range parts {
				v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
				if err != nil {
					fatal(err)
				}
				field.SetData(i, gca.Value(v))
			}
		}
		res, err := prog.Run(gcasm.RunConfig{N: nn, Field: field, CollectStats: *stats})
		if err != nil {
			fatal(err)
		}
		for i := 0; i < size; i++ {
			fmt.Printf("%d %d\n", i, field.Data(i))
		}
		fmt.Printf("# generations=%d\n", res.Generations)
		printStats(res, *stats)

	default:
		fmt.Fprintln(os.Stderr, "gca-asm: provide -in <graph> or -cells <size> (or -list)")
		os.Exit(2)
	}
}

func printStats(res *gcasm.RunResult, on bool) {
	if !on {
		return
	}
	fmt.Printf("# %-14s %-5s %-5s %-8s %-8s %-6s\n", "generation", "iter", "sub", "active", "reads", "maxδ")
	for _, r := range res.Records {
		fmt.Printf("# %-14s %-5d %-5d %-8d %-8d %-6d\n", r.GenName, r.Iteration, r.Sub, r.Active, r.Reads, r.MaxDelta)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gca-asm:", err)
	os.Exit(1)
}

func readGraph(path, format string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only input
	return graph.Read(f, format)
}

// Command gca-verilog emits the synthesizable Verilog description of the
// paper's fully parallel hardware design for a given graph — "the design
// was described in Verilog and synthesized for an ALTERA CYCLONE II FPGA"
// (paper, Section 4):
//
//	gca-verilog -n 16 > gca16.v             # G(16, 0.5) baked in
//	gca-verilog -in graph.el -format edges  # a specific graph
//
// It also prints the cost-model synthesis estimate for the design on
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"gcacc/internal/graph"
	"gcacc/internal/hw"
)

func main() {
	var (
		n      = flag.Int("n", 16, "graph size for the generated random graph")
		p      = flag.Float64("p", 0.5, "edge probability for the generated graph")
		seed   = flag.Int64("seed", 2007, "random seed")
		in     = flag.String("in", "", "optional input graph file (overrides -n)")
		format = flag.String("format", "edges", "input format: edges|matrix")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	if *in != "" {
		g, err = readGraph(*in, *format)
	} else {
		g = graph.Gnp(*n, *p, rand.New(rand.NewSource(*seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gca-verilog:", err)
		os.Exit(1)
	}

	fmt.Print(hw.GenerateVerilog(g))
	fmt.Fprintf(os.Stderr, "// cost model: %s\n", hw.Estimate(g.N()))
}

func readGraph(path, format string) (*graph.Graph, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }() // read-only input
		r = f
	}
	return graph.Read(r, format)
}

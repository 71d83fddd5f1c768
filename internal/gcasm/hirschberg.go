package gcasm

import (
	"fmt"

	"gcacc/internal/core"
	"gcacc/internal/graph"
)

// HirschbergSource is the paper's 12-generation program (Figure 2)
// expressed in the rule language — the textual counterpart of the
// hard-coded rule in internal/core, and the package's reference example.
//
// The field contract: n·(n+1) cells, row-major, rows 0…n-1 the square
// field D□ (cell (j,i) carries a = A(j,i)), row n the bottom row D_N.
//
// The data-dependent pointers of generations 10–11 guard on d < n; the
// algorithm guarantees the guard holds, and the guard keeps a corrupted
// run from wrapping into a valid index.
const HirschbergSource = `
# Hirschberg connected components on a Global Cellular Automaton.
# Field: (n+1) x n cells; column 0 carries C/T; row n is D_N.

gen init:
    d <- row

gen copy_c:
    p = col * n
    d <- dstar

gen mask_adj:
    p = if row == n then none else n*n + row
    d <- if row == n then d else if a == 1 and d != dstar then d else inf

gen reduce_t times log:
    p = if row == n or col + pow2(sub) >= n then none else index + pow2(sub)
    d <- if row != n and dstar < d then dstar else d

gen default_t:
    p = if col == 0 and row != n then n*n + row else none
    d <- if col == 0 and row != n and d == inf then dstar else d

gen copy_t:
    p = col * n
    d <- if row == n then d else dstar

gen mask_comp:
    p = if row == n then none else n*n + col
    d <- if row == n then d else if dstar == row and d != row then d else inf

gen reduce_t2 times log:
    p = if row == n or col + pow2(sub) >= n then none else index + pow2(sub)
    d <- if row != n and dstar < d then dstar else d

gen default_t2:
    p = if col == 0 and row != n then n*n + row else none
    d <- if col == 0 and row != n and d == inf then dstar else d

gen spread:
    p = if row == n or col == 0 then none else row * n
    d <- if row == n or col == 0 then d else dstar

gen shortcut times log:
    p = if col == 0 and row != n and d < n then d * n else none
    d <- if col == 0 and row != n then dstar else d

gen final_min:
    p = if col == 0 and row != n and d < n then d * n + 1 else none
    d <- if col == 0 and row != n then min(d, dstar) else d

start init
repeat log {
    copy_c mask_adj reduce_t default_t
    copy_t mask_comp reduce_t2 default_t2
    spread shortcut final_min
}
`

// HirschbergProgram parses the embedded source; it panics only if the
// embedded text is broken (covered by tests).
func HirschbergProgram() *Program {
	p, err := Parse(HirschbergSource)
	if err != nil {
		panic(fmt.Sprintf("gcasm: embedded Hirschberg program does not parse: %v", err))
	}
	return p
}

// ConnectedComponents runs the DSL version of the paper's algorithm on g:
// it prepares the (n+1)×n field, executes the program and extracts the
// component vector from column 0.
func ConnectedComponents(g *graph.Graph, workers int) ([]int, *RunResult, error) {
	n := g.N()
	if n == 0 {
		return []int{}, &RunResult{}, nil
	}
	field := core.NewProgramField(g)
	res, err := HirschbergProgram().Run(RunConfig{N: n, Field: field, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	labels := make([]int, n)
	for j := 0; j < n; j++ {
		labels[j] = int(field.Data(j * n))
	}
	return labels, res, nil
}

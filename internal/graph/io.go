package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text formats supported by the CLI tools:
//
//   - "matrix": n lines of n '0'/'1' characters — the paper's adjacency
//     matrix A verbatim. Blank lines and lines starting with '#' are
//     ignored.
//   - "edges": a header line "n m" followed by m lines "u v" — the common
//     edge-list exchange format.
//
// Both parsers validate symmetry/self-loop constraints and return errors
// (never panic) on malformed input.
//
// Because the dense adjacency representation costs n² bits, the parsers
// refuse inputs above MaxParseVertices: untrusted input must not be able
// to demand gigabytes with a two-token header. Construct larger graphs
// programmatically via New/AddEdge if you really need them.

// MaxParseVertices is the largest vertex count the text parsers accept
// (n² bits ≈ 32 MiB of adjacency at the cap).
const MaxParseVertices = 16384

// parseFields splits a data line into exactly want strict non-negative
// decimals: digits only — no sign marks, no trailing junk. This matches
// the sparse streaming parser token for token, so the dense and sparse
// edge-list parsers accept exactly the same inputs (pinned by the parity
// test in internal/sparse).
func parseFields(line string, want int) ([]int64, error) {
	fields := strings.Fields(line)
	if len(fields) != want {
		return nil, fmt.Errorf("want %d numbers, got %d", want, len(fields))
	}
	out := make([]int64, want)
	for i, f := range fields {
		v, err := parseDecimal(f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseDecimal(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad number %q", s)
		}
		if v > (1<<62)/10 {
			return 0, fmt.Errorf("number %q overflows", s)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// Read parses r in the named text format: "edges" (also the empty
// string, the default everywhere a format is optional) or "matrix". Any
// other name is an error, so a typo never silently parses as an edge
// list.
func Read(r io.Reader, format string) (*Graph, error) {
	switch format {
	case "", "edges":
		return ReadEdgeList(r)
	case "matrix":
		return ReadMatrix(r)
	default:
		return nil, fmt.Errorf("graph: unknown format %q (edges|matrix)", format)
	}
}

// WriteMatrix writes g in "matrix" format.
func WriteMatrix(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(g.String()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMatrix parses "matrix" format. The number of vertices is inferred
// from the first data line.
func ReadMatrix(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var rows []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading matrix: %w", err)
	}
	n := len(rows)
	if n == 0 {
		return New(0), nil
	}
	if n > MaxParseVertices {
		return nil, fmt.Errorf("graph: matrix has %d rows, parser cap is %d", n, MaxParseVertices)
	}
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("graph: matrix row %d has %d columns, want %d", i, len(row), n)
		}
		for j := 0; j < n; j++ {
			switch row[j] {
			case '0', '1':
			default:
				return nil, fmt.Errorf("graph: matrix row %d has invalid character %q", i, row[j])
			}
		}
		if row[i] == '1' {
			return nil, fmt.Errorf("graph: matrix has self-loop at vertex %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i][j] != rows[j][i] {
				return nil, fmt.Errorf("graph: matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i][j] == '1' {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

// WriteWeightedEdgeList writes a weighted graph as a "n m" header
// followed by "u v w" lines.
func WriteWeightedEdgeList(w io.Writer, g *Weighted) error {
	bw := bufio.NewWriter(w)
	edges := g.Edges()
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), len(edges)); err != nil {
		return err
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWeightedEdgeList parses the weighted "u v w" edge-list format.
func ReadWeightedEdgeList(r io.Reader) (*Weighted, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var n, m int
	header := false
	var g *Weighted
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !header {
			vals, err := parseFields(line, 2)
			if err != nil {
				return nil, fmt.Errorf("graph: bad weighted header %q: %w", line, err)
			}
			if vals[0] > MaxParseVertices {
				return nil, fmt.Errorf("graph: header asks for %d vertices, parser cap is %d", vals[0], MaxParseVertices)
			}
			n, m = int(vals[0]), int(vals[1])
			g = NewWeighted(n)
			header = true
			continue
		}
		vals, err := parseFields(line, 3)
		if err != nil {
			return nil, fmt.Errorf("graph: bad weighted edge line %q: %w", line, err)
		}
		u, v, w := int(vals[0]), int(vals[1]), vals[2]
		if u >= n || v >= n || u == v {
			return nil, fmt.Errorf("graph: invalid edge (%d,%d)", u, v)
		}
		if w <= 0 {
			return nil, fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, u, v)
		}
		g.AddEdge(u, v, w)
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading weighted edge list: %w", err)
	}
	if !header {
		return nil, fmt.Errorf("graph: empty weighted edge-list input")
	}
	if read != m {
		return nil, fmt.Errorf("graph: header promised %d edges, got %d", m, read)
	}
	return g, nil
}

// WriteEdgeList writes g in "edges" format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	edges := g.Edges()
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), len(edges)); err != nil {
		return err
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "edges" format.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var n, m int
	header := false
	g := (*Graph)(nil)
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !header {
			vals, err := parseFields(line, 2)
			if err != nil {
				return nil, fmt.Errorf("graph: bad edge-list header %q: %w", line, err)
			}
			if vals[0] > MaxParseVertices {
				return nil, fmt.Errorf("graph: header asks for %d vertices, parser cap is %d", vals[0], MaxParseVertices)
			}
			n, m = int(vals[0]), int(vals[1])
			g = New(n)
			header = true
			continue
		}
		vals, err := parseFields(line, 2)
		if err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		u, v := int(vals[0]), int(vals[1])
		if u >= n || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop (%d,%d)", u, v)
		}
		g.AddEdge(u, v)
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if !header {
		return nil, fmt.Errorf("graph: empty edge-list input")
	}
	if read != m {
		return nil, fmt.Errorf("graph: header promised %d edges, got %d", m, read)
	}
	return g, nil
}

package sparse

import (
	"bufio"
	"fmt"
	"io"

	"gcacc/internal/graph"
)

// The streaming edge-list parser accepts the same "edges" text format as
// the dense graph.ReadEdgeList — a header line "n m" followed by m lines
// "u v", with blank lines and '#' comments skipped — but never builds an
// n² structure, so it scales to the million-vertex inputs this package
// exists for. Two things differ from the dense parser by necessity:
//
//   - the vertex cap is MaxStreamVertices (not graph.MaxParseVertices):
//     memory here is Θ(n + m), so the guard only has to bound honest
//     allocation, not an n² blow-up;
//   - hot-loop parsing is hand-rolled (no fmt.Sscanf): at 10⁶ edge lines
//     Sscanf's reflection dominates wall-clock.
//
// A hostile header cannot force a large allocation: edge capacity grows
// by append from a bounded initial hint, and vertex-side allocation is
// checked against the cap before anything is reserved.

// MaxStreamVertices is the largest vertex count ReadEdgeStream accepts.
const MaxStreamVertices = MaxVertices

// maxPrealloc bounds what the parser reserves up front on the strength of
// the header alone (entries, not bytes); beyond it, append growth takes
// over and is paid for only by actual input.
const maxPrealloc = 1 << 20

// ReadEdgeStream parses "edges" format into a sparse graph in a single
// streaming pass. Duplicate edges collapse; self-loops and out-of-range
// endpoints are errors, as is an edge count that disagrees with the
// header.
func ReadEdgeStream(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var n, m int
	header := false
	var g *Graph
	read := 0
	for sc.Scan() {
		line := trimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		a, b, err := parsePair(line)
		if err != nil {
			if !header {
				return nil, fmt.Errorf("sparse: bad edge-list header %q: %v", line, err)
			}
			return nil, fmt.Errorf("sparse: bad edge line %q: %v", line, err)
		}
		if !header {
			n, m = a, b
			if n > MaxStreamVertices {
				return nil, fmt.Errorf("sparse: header asks for %d vertices, parser cap is %d", n, MaxStreamVertices)
			}
			g = New(n)
			g.edges = make([]Edge, 0, min(m, maxPrealloc))
			header = true
			continue
		}
		u, v := a, b
		if u >= n || v >= n {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("sparse: self-loop (%d,%d)", u, v)
		}
		if u > v {
			u, v = v, u
		}
		g.edges = append(g.edges, Edge{int32(u), int32(v)})
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading edge stream: %w", err)
	}
	if !header {
		return nil, fmt.Errorf("sparse: empty edge-list input")
	}
	if read != m {
		return nil, fmt.Errorf("sparse: header promised %d edges, got %d", m, read)
	}
	g.canon = false
	g.canonicalise()
	return g, nil
}

// Read parses r in the named text format: "edges" (also the empty
// string, the default everywhere a format is optional) streams through
// ReadEdgeStream; "matrix" is parsed by graph.ReadMatrix, whose cap of
// graph.MaxParseVertices rows bounds the n² adjacency it builds, and
// converted once with FromDense. Any other name is an error.
func Read(r io.Reader, format string) (*Graph, error) {
	switch format {
	case "", "edges":
		return ReadEdgeStream(r)
	case "matrix":
		d, err := graph.ReadMatrix(r)
		if err != nil {
			return nil, err
		}
		return FromDense(d), nil
	default:
		return nil, fmt.Errorf("sparse: unknown format %q (edges|matrix)", format)
	}
}

// WriteEdgeStream writes g in "edges" format (canonical order), using
// manual integer formatting for the same hot-loop reason as the reader.
func WriteEdgeStream(w io.Writer, g *Graph) error {
	g.canonicalise()
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 24)
	buf = appendPair(buf, g.n, len(g.edges))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, e := range g.edges {
		buf = appendPair(buf[:0], int(e.U), int(e.V))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parsePair parses "a b" with arbitrary interior whitespace into two
// non-negative ints, rejecting trailing junk, overflow and sign marks.
func parsePair(line []byte) (int, int, error) {
	a, rest, err := parseUint(line)
	if err != nil {
		return 0, 0, err
	}
	sep := skipSpace(rest)
	if len(sep) == len(rest) || len(sep) == 0 {
		return 0, 0, fmt.Errorf("missing second field")
	}
	b, rest, err := parseUint(sep)
	if err != nil {
		return 0, 0, err
	}
	if len(skipSpace(rest)) != 0 {
		return 0, 0, fmt.Errorf("trailing junk %q", rest)
	}
	return a, b, nil
}

// parseUint consumes a decimal run from the front of b, returning the
// value and the remainder. MaxVertices bounds the accepted range, which
// keeps the overflow check to a single comparison.
func parseUint(b []byte) (int, []byte, error) {
	i, v := 0, 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		if v > MaxVertices*16 {
			return 0, nil, fmt.Errorf("number out of range")
		}
		i++
	}
	if i == 0 {
		return 0, nil, fmt.Errorf("expected digit, got %q", b)
	}
	return v, b[i:], nil
}

func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}

func trimSpace(b []byte) []byte {
	b = skipSpace(b)
	for len(b) > 0 {
		c := b[len(b)-1]
		if c != ' ' && c != '\t' && c != '\r' {
			break
		}
		b = b[:len(b)-1]
	}
	return b
}

func appendPair(buf []byte, a, b int) []byte {
	buf = appendInt(buf, a)
	buf = append(buf, ' ')
	buf = appendInt(buf, b)
	return append(buf, '\n')
}

func appendInt(buf []byte, v int) []byte {
	if v == 0 {
		return append(buf, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(buf, tmp[i:]...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

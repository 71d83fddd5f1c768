package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/bits"
)

// EdgeListHash computes the graph fingerprint, the one content key of
// the serving stack (the result-cache key of internal/service and the
// ring key of internal/cluster): SHA-256 over n and m (uint64 LE), then
// each of the m distinct edges {u, v} as uint32 LE u, v with u < v, in
// ascending (u, v) order — the canonical edge list. Graph and
// sparse.Graph both compute it, so a graph has one key whichever
// representation it arrived in, and two graphs share a key iff they
// have the same vertex count and edge set (up to hash collisions).
//
// Create it with the vertex and distinct-edge counts, Add every edge in
// canonical order, then Sum. Edges are encoded into a chunk buffer and
// hashed in bulk, not one small Write per edge.
type EdgeListHash struct {
	h   hash.Hash
	buf []byte
}

// NewEdgeListHash starts the fingerprint of a graph with n vertices and
// m distinct edges.
func NewEdgeListHash(n, m int) *EdgeListHash {
	e := &EdgeListHash{h: sha256.New(), buf: make([]byte, 0, 8<<10)}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(n))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(m))
	return e
}

// Add appends the edge {u, v}. Callers pass u < v and add the edges in
// ascending (u, v) order, each once; the hash does not check it.
func (e *EdgeListHash) Add(u, v int32) {
	if len(e.buf)+8 > cap(e.buf) {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(u))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
}

// Sum returns the fingerprint of everything added.
func (e *EdgeListHash) Sum() [32]byte {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
	var sum [32]byte
	e.h.Sum(sum[:0])
	return sum
}

// Fingerprint returns the canonical edge-list fingerprint of g (see
// EdgeListHash), walking the upper triangle of the adjacency matrix a
// word at a time in row-major order, which is the canonical edge order.
func (g *Graph) Fingerprint() [32]byte {
	h := NewEdgeListHash(g.n, g.M())
	g.upperTriangle(func(u, base int, w uint64) {
		for ; w != 0; w &= w - 1 {
			h.Add(int32(u), int32(base+bits.TrailingZeros64(w)))
		}
	})
	return h.Sum()
}

// upperTriangle calls f, in row-major order, for every non-zero word of
// row u masked to the columns right of the diagonal; base is the column
// of the word's bit 0.
func (g *Graph) upperTriangle(f func(u, base int, w uint64)) {
	stride := g.adj.stride
	for u := 0; u < g.n; u++ {
		row := g.adj.words[u*stride : (u+1)*stride]
		first := (u + 1) / 64
		for wi := first; wi < stride; wi++ {
			w := row[wi]
			if wi == first {
				w &^= 1<<uint((u+1)%64) - 1
			}
			if w != 0 {
				f(u, wi*64, w)
			}
		}
	}
}

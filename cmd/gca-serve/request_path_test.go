package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// Request-path tests: POST /v1/components parses the body straight into
// the edge list, keys it by the canonical edge-list fingerprint and
// densifies only for dense-only engines, so what a request costs
// follows its edge count, not n².

// componentsMux serves the graph routes of a standalone gca-serve over
// svc with the default body cap.
func componentsMux(t testing.TB, svc *service.Service) *http.ServeMux {
	t.Helper()
	node, err := buildCluster(svc, clusterFlags{mode: "proxy"})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	registerComponents(mux, node, defaultMaxBody, false)
	return mux
}

func serve(h http.Handler, query string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/components"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestComponentsEdgelessBodyAllocation pins that an 8-byte body naming
// 16384 vertices and no edges costs memory in proportion to its edges
// and labels, not to the 32 MiB adjacency matrix its vertex count
// implies.
func TestComponentsEdgelessBodyAllocation(t *testing.T) {
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	mux := componentsMux(t, svc)
	body := []byte("16384 0")

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w := serve(mux, "?engine=liutarjan", body)
	runtime.ReadMemStats(&m1)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %.200q)", w.Code, w.Body.String())
	}
	const limit = 4 << 20
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= limit {
		t.Fatalf("request allocated %d bytes, want < %d", got, limit)
	}
}

// TestComponentsMillionVertexEdgeList sends a uniform random edge list
// with n = 10⁶ and m = 2·10⁶ under the default body cap to a server
// admitting 10⁶ vertices: the labels must equal union-find's.
func TestComponentsMillionVertexEdgeList(t *testing.T) {
	const n, m = 1_000_000, 2_000_000
	g := sparse.RandomEdges(n, m, rand.New(rand.NewSource(42)))
	var body bytes.Buffer
	if err := sparse.WriteEdgeStream(&body, g); err != nil {
		t.Fatal(err)
	}
	if body.Len() > defaultMaxBody {
		t.Fatalf("body is %d bytes, over the default -max-body %d", body.Len(), defaultMaxBody)
	}
	svc := service.New(service.Config{MaxVertices: n})
	t.Cleanup(svc.Close)

	w := serve(componentsMux(t, svc), "?engine=liutarjan", body.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %.200q)", w.Code, w.Body.String())
	}
	var resp componentsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if want := sparse.ConnectedComponentsUnionFind(g); !slices.Equal(resp.Labels, want) {
		t.Fatalf("labels differ from union-find (n=%d, %d labels returned)", n, len(resp.Labels))
	}
}

// TestComponentsAdmissionStatus pins where the size limits answer: a
// vertex count above -max-vertices is refused at admission with 413
// (the edge-list parser takes any count up to sparse.MaxVertices), and
// a dense-only engine above the dense cutoff still answers 422.
func TestComponentsAdmissionStatus(t *testing.T) {
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	mux := componentsMux(t, svc)
	over := fmt.Sprintf("%d 0", graph.MaxParseVertices+1)
	if w := serve(mux, "?engine=liutarjan", []byte(over)); w.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(w.Body.String(), service.ErrTooLarge.Error()) {
		t.Fatalf("n above -max-vertices: status = %d (body %q), want 413 naming %q",
			w.Code, w.Body.String(), service.ErrTooLarge)
	}
	above := fmt.Sprintf("%d 1\n0 1\n", sparse.DenseCutoff+1)
	if w := serve(mux, "?engine=gca", []byte(above)); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("gca above the dense cutoff: status = %d (body %q), want 422", w.Code, w.Body.String())
	}
}

// TestComponentsOneKeyAcrossFormats sends one graph as an edge list and
// then as an adjacency matrix: both bodies key the same cache entry, so
// the second request is a cache hit.
func TestComponentsOneKeyAcrossFormats(t *testing.T) {
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	mux := componentsMux(t, svc)
	if w := serve(mux, "", []byte("4 2\n2 3\n0 1\n")); w.Code != http.StatusOK {
		t.Fatalf("edges body: status = %d (body %q)", w.Code, w.Body.String())
	}
	w := serve(mux, "?format=matrix", []byte("0100\n1000\n0001\n0010\n"))
	var resp componentsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("matrix body: status %d, decode error %v (body %q)", w.Code, err, w.Body.String())
	}
	if !resp.Cached || resp.Components != 2 {
		t.Fatalf("matrix body = %+v, want a cache hit with 2 components", resp)
	}
}

// BenchmarkComponentsHandler drives POST /v1/components through the
// server's routes with labels encoded: parse, fingerprint, cache miss,
// engine, encode. Each sub-benchmark cycles eight distinct bodies over
// a four-entry cache, so every request misses but is still hashed.
func BenchmarkComponentsHandler(b *testing.B) {
	cases := []struct {
		name    string
		engine  string
		gen     func(rng *rand.Rand) *sparse.Graph
		shuffle bool // body lines in random order, as clients may send them
	}{
		{"liutarjan/n=16384/m=32768", "liutarjan", func(rng *rand.Rand) *sparse.Graph {
			return sparse.RandomEdges(16384, 32768, rng)
		}, false},
		{"liutarjan/n=16384/m=32768/shuffled", "liutarjan", func(rng *rand.Rand) *sparse.Graph {
			return sparse.RandomEdges(16384, 32768, rng)
		}, true},
		{"gca/n=128/p=0.03", "gca", func(rng *rand.Rand) *sparse.Graph {
			return sparse.FromDense(graph.Gnp(128, 0.03, rng))
		}, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bodies := make([][]byte, 8)
			for i := range bodies {
				var buf bytes.Buffer
				if err := sparse.WriteEdgeStream(&buf, c.gen(rng)); err != nil {
					b.Fatal(err)
				}
				bodies[i] = buf.Bytes()
				if c.shuffle {
					bodies[i] = shuffleLines(bodies[i], rng)
				}
			}
			svc := service.New(service.Config{CacheEntries: 4})
			b.Cleanup(svc.Close)
			mux := componentsMux(b, svc)
			query := "?engine=" + c.engine
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w := serve(mux, query, bodies[i%len(bodies)]); w.Code != http.StatusOK {
					b.Fatalf("status = %d (body %.200q)", w.Code, w.Body.String())
				}
			}
		})
	}
}

// shuffleLines keeps the header line of an "edges" body and puts the
// edge lines after it in random order.
func shuffleLines(body []byte, rng *rand.Rand) []byte {
	lines := bytes.SplitAfter(body, []byte("\n"))
	edges := lines[1:]
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return bytes.Join(lines, nil)
}

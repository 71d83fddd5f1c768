package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcacc/internal/cluster"
	"gcacc/internal/service"
	"gcacc/internal/stream"
)

// Handler-level tests: every malformed or hostile request must map onto
// the documented status code — never a 500, never a panic. The handler is
// exercised directly (no listener) so the tests stay fast and
// deterministic.

func newTestService(t *testing.T) *service.Service {
	t.Helper()
	svc := service.New(service.Config{
		QueueDepth:  8,
		Workers:     2,
		MaxVertices: 256,
	})
	t.Cleanup(svc.Close)
	return svc
}

// newComponentsHandler serves POST /v1/components through svc on a
// one-member ring — the shape a standalone gca-serve runs.
func newComponentsHandler(t *testing.T, svc *service.Service, maxBody int64, chaos bool) http.HandlerFunc {
	t.Helper()
	return clusterComponentsHandler(newStandaloneNode(t, svc), maxBody, chaos)
}

func postComponents(t *testing.T, h http.HandlerFunc, query, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/components"+query, strings.NewReader(body))
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

// errorBody decodes the JSON error envelope and fails the test if the
// response is not one — error paths must stay machine-readable.
func errorBody(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var m map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("error response is not a JSON object: %v (body %q)", err, w.Body.String())
	}
	if m["error"] == "" {
		t.Fatalf("error response missing %q field: %q", "error", w.Body.String())
	}
	return m["error"]
}

func TestComponentsHandlerSuccess(t *testing.T) {
	h := newComponentsHandler(t, newTestService(t), 1<<20, false)
	w := postComponents(t, h, "", "4 2\n0 1\n2 3\n")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %q)", w.Code, w.Body.String())
	}
	var resp componentsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.N != 4 || resp.Components != 2 {
		t.Fatalf("got n=%d components=%d, want n=4 components=2", resp.N, resp.Components)
	}
	if want := []int{0, 0, 2, 2}; len(resp.Labels) != len(want) {
		t.Fatalf("labels = %v, want %v", resp.Labels, want)
	} else {
		for i := range want {
			if resp.Labels[i] != want[i] {
				t.Fatalf("labels = %v, want %v", resp.Labels, want)
			}
		}
	}

	// labels=0 drops the label vector and keeps the rest (a cache hit).
	w = postComponents(t, h, "?labels=0", "4 2\n0 1\n2 3\n")
	var lean componentsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &lean); err != nil || w.Code != http.StatusOK {
		t.Fatalf("labels=0: status %d, decode error %v (body %q)", w.Code, err, w.Body.String())
	}
	if lean.Labels != nil || lean.N != 4 || lean.Components != 2 || !lean.Cached {
		t.Fatalf("labels=0 response = %+v, want no labels, n=4, components=2, cached", lean)
	}
}

// TestComponentsHandlerDenseOnlyAboveCutoff pins the dense-engine
// guardrail end to end: a graph above the dense cutoff requested on a
// dense-only engine answers 422 with an error naming the cutoff and a
// way out — not the OOM-shaped timeout a (n+1)×n cell field would
// produce. The same graph on a sparse-capable engine succeeds.
func TestComponentsHandlerDenseOnlyAboveCutoff(t *testing.T) {
	svc := service.New(service.Config{
		QueueDepth:  8,
		Workers:     2,
		MaxVertices: 256,
		DenseCutoff: 16, // small override so the test graph stays tiny
	})
	t.Cleanup(svc.Close)
	h := newComponentsHandler(t, svc, 1<<20, false)

	body := "17 1\n0 16\n"
	w := postComponents(t, h, "?engine=gca", body)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("dense engine above cutoff: status = %d, want 422 (body %q)", w.Code, w.Body.String())
	}
	msg := errorBody(t, w)
	if !strings.Contains(msg, "dense") || !strings.Contains(msg, "liutarjan") {
		t.Fatalf("422 error %q does not explain the cutoff or name a sparse engine", msg)
	}

	for _, engine := range []string{"liutarjan", "logdiameter", "sequential"} {
		w := postComponents(t, h, "?engine="+engine, body)
		if w.Code != http.StatusOK {
			t.Fatalf("sparse engine %s above cutoff: status = %d, want 200 (body %q)", engine, w.Code, w.Body.String())
		}
	}

	// At or below the cutoff the dense engine still works.
	w = postComponents(t, h, "?engine=gca", "16 1\n0 15\n")
	if w.Code != http.StatusOK {
		t.Fatalf("dense engine at cutoff: status = %d, want 200 (body %q)", w.Code, w.Body.String())
	}
}

func TestComponentsHandlerUnknownEngine(t *testing.T) {
	h := newComponentsHandler(t, newTestService(t), 1<<20, false)
	w := postComponents(t, h, "?engine=quantum", "2 1\n0 1\n")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	if msg := errorBody(t, w); !strings.Contains(msg, "quantum") {
		t.Fatalf("error %q does not name the rejected engine", msg)
	}
}

func TestComponentsHandlerUnknownFormat(t *testing.T) {
	h := newComponentsHandler(t, newTestService(t), 1<<20, false)
	w := postComponents(t, h, "?format=xml", "2 1\n0 1\n")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	errorBody(t, w)
}

func TestComponentsHandlerMalformedBody(t *testing.T) {
	h := newComponentsHandler(t, newTestService(t), 1<<20, false)
	for _, body := range []string{
		"this is not a graph",
		"3 1\n0 9\n", // endpoint out of range
		"2 2\n0 1\n", // fewer edges than the header promises
		"-1 0\n",     // negative vertex count
		"2 1\nx y\n", // non-numeric edge endpoints
	} {
		w := postComponents(t, h, "", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (response %q)", body, w.Code, w.Body.String())
			continue
		}
		errorBody(t, w)
	}
}

func TestComponentsHandlerOversizedBody(t *testing.T) {
	// A 64-byte cap makes the MaxBytesReader trip mid-parse; the handler
	// must surface that as 413, not as a generic parse failure.
	h := newComponentsHandler(t, newTestService(t), 64, false)
	var b strings.Builder
	fmt.Fprintf(&b, "40 39\n")
	for i := 0; i < 39; i++ {
		fmt.Fprintf(&b, "%d %d\n", i, i+1)
	}
	w := postComponents(t, h, "", b.String())
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)
}

func TestComponentsHandlerClientDisconnect(t *testing.T) {
	// A client that vanishes mid-request surfaces as a canceled request
	// context. The handler must answer 499 (client closed request), not
	// 500: the failure is the client's, and dashboards alerting on 5xx
	// must not page for it.
	h := newComponentsHandler(t, newTestService(t), 1<<20, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/components", strings.NewReader("2 1\n0 1\n")).WithContext(ctx)
	w := httptest.NewRecorder()
	h(w, req)
	if w.Code != cluster.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d (body %q)", w.Code, cluster.StatusClientClosedRequest, w.Body.String())
	}
	errorBody(t, w)
}

func TestComponentsHandlerQueueFullAndClosed(t *testing.T) {
	// Submitting to a closed service must map to 503; the Retry-After
	// header is reserved for 429.
	svc := service.New(service.Config{QueueDepth: 1, Workers: 1, MaxVertices: 16})
	svc.Close()
	h := newComponentsHandler(t, svc, 1<<20, false)
	w := postComponents(t, h, "", "2 1\n0 1\n")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)
	if got := w.Header().Get("Retry-After"); got != "" {
		t.Fatalf("503 carries Retry-After %q; only 429 should", got)
	}
}

// TestStatusOf pins gca-serve's error-to-status mapping: the streaming
// sentinels it adds and the serving-layer contract it inherits from
// cluster.StatusOf (a full queue is 429, not queueing forever).
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{service.ErrQueueFull, http.StatusTooManyRequests},
		{service.ErrTooLarge, http.StatusRequestEntityTooLarge},
		{service.ErrDenseOnly, http.StatusUnprocessableEntity},
		{service.ErrClosed, http.StatusServiceUnavailable},
		{service.ErrBreakerOpen, http.StatusServiceUnavailable},
		{service.ErrInvalidEngine, http.StatusBadRequest},
		{service.ErrNilGraph, http.StatusBadRequest},
		{service.ErrEnginePanic, http.StatusInternalServerError},
		{context.Canceled, cluster.StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("mystery"), http.StatusInternalServerError},
		{fmt.Errorf("wrapped: %w", context.Canceled), cluster.StatusClientClosedRequest},
		{fmt.Errorf("wrapped: %w", service.ErrQueueFull), http.StatusTooManyRequests},
		{stream.ErrUnknownGraph, http.StatusNotFound},
		{stream.ErrGraphExists, http.StatusConflict},
		{stream.ErrEpochConflict, http.StatusConflict},
		{stream.ErrGraphLimit, http.StatusTooManyRequests},
		{stream.ErrBatchLimit, http.StatusUnprocessableEntity},
		{stream.ErrEdgeLimit, http.StatusUnprocessableEntity},
		{stream.ErrInvalidEdge, http.StatusUnprocessableEntity},
		{stream.ErrBadName, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", stream.ErrEpochConflict), http.StatusConflict},
	}
	for _, c := range cases {
		if got := streamStatusOf(c.err); got != c.want {
			t.Errorf("streamStatusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

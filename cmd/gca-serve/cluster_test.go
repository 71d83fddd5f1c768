package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gcacc/internal/cluster"
	"gcacc/internal/fault"
	"gcacc/internal/graph"
	"gcacc/internal/service"
)

// Cluster-handler tests: the batch endpoint's per-item status contract
// (a batch is never all-or-nothing), the shard-owner header, the
// -cluster-mode check, and the merged stats shape. Handlers are
// exercised directly, as in main_test.go — no listener, no real peers.

// newStandaloneNode wires a single-member cluster node around svc, the
// same shape `gca-serve` runs without -peers.
func newStandaloneNode(t *testing.T, svc *service.Service) *cluster.Node {
	t.Helper()
	node, err := buildCluster(svc, clusterFlags{mode: "proxy"})
	if err != nil {
		t.Fatal(err)
	}
	if m := node.Config().Members; len(m) != 1 || m[0] != 0 {
		t.Fatalf("standalone buildCluster: members=%v, want [0]", m)
	}
	return node
}

func postBatch(t *testing.T, h http.HandlerFunc, query string, req cluster.WireBatchRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/components/batch"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h(w, r)
	return w
}

func decodeBatch(t *testing.T, w *httptest.ResponseRecorder) cluster.WireBatchResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (body %q)", w.Code, w.Body.String())
	}
	var resp cluster.WireBatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp
}

func edgeList(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestBatchHandlerEmptyAndMalformed(t *testing.T) {
	svc := newTestService(t)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)

	w := postBatch(t, h, "", cluster.WireBatchRequest{})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400 (body %q)", w.Code, w.Body.String())
	}
	errorBody(t, w)

	r := httptest.NewRequest(http.MethodPost, "/v1/components/batch", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", rec.Code)
	}
	errorBody(t, rec)
}

func TestBatchHandlerBodyTooLarge(t *testing.T) {
	svc := newTestService(t)
	h := batchHandler(newStandaloneNode(t, svc), 64) // 64-byte body cap
	w := postBatch(t, h, "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: edgeList(t, graph.Path(64))},
	}})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413 (body %q)", w.Code, w.Body.String())
	}
}

// TestBatchHandlerMixedOutcomes pins the never-all-or-nothing contract:
// a batch mixing good items, a dense-only engine above its cutoff, an
// unknown engine and a malformed graph answers 200 with per-item
// statuses 200/422/400/400 — failures never leak onto their siblings.
func TestBatchHandlerMixedOutcomes(t *testing.T) {
	svc := service.New(service.Config{
		QueueDepth: 8, Workers: 2, MaxVertices: 256, DenseCutoff: 8,
	})
	t.Cleanup(svc.Close)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)

	resp := decodeBatch(t, postBatch(t, h, "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: edgeList(t, graph.Path(4))},                           // fine on the default engine
		{Graph: edgeList(t, graph.Path(16)), Engine: "gca"},           // dense-only above cutoff
		{Graph: edgeList(t, graph.Path(4)), Engine: "no-such-engine"}, // 400 at decode
		{Graph: "3 1\n0\n"}, // malformed edge list
		{Graph: edgeList(t, graph.Path(16)), Engine: "liutarjan"}, // sparse-capable sibling
	}}))
	want := []int{200, 422, 400, 400, 200}
	if len(resp.Items) != len(want) {
		t.Fatalf("got %d outcomes, want %d", len(resp.Items), len(want))
	}
	for i, oc := range resp.Items {
		if oc.Status != want[i] {
			t.Errorf("item %d: status = %d (error %q), want %d", i, oc.Status, oc.Error, want[i])
		}
		if oc.Status != http.StatusOK && oc.Error == "" {
			t.Errorf("item %d: failed with empty error", i)
		}
	}
	if resp.Items[4].Components != 1 || len(resp.Items[4].Labels) != 16 {
		t.Errorf("sparse sibling: components=%d labels=%d, want 1 and 16",
			resp.Items[4].Components, len(resp.Items[4].Labels))
	}
}

// TestBatchHandlerDuplicatesCoalesce: two items with the same
// fingerprint and engine compute once; the duplicate reports Coalesced
// with identical labels.
func TestBatchHandlerDuplicatesCoalesce(t *testing.T) {
	svc := newTestService(t)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)

	el := edgeList(t, graph.Cycle(9))
	resp := decodeBatch(t, postBatch(t, h, "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: el}, {Graph: el},
	}}))
	if len(resp.Items) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(resp.Items))
	}
	for i, oc := range resp.Items {
		if oc.Status != http.StatusOK {
			t.Fatalf("item %d: status = %d (error %q)", i, oc.Status, oc.Error)
		}
	}
	if !resp.Items[1].Coalesced {
		t.Error("duplicate item not marked coalesced")
	}
	if fmt.Sprint(resp.Items[0].Labels) != fmt.Sprint(resp.Items[1].Labels) {
		t.Errorf("duplicate labels diverge: %v vs %v", resp.Items[0].Labels, resp.Items[1].Labels)
	}
	if got := svc.Stats().Completed; got != 1 {
		t.Errorf("service completed %d jobs for a coalesced pair, want 1", got)
	}
}

// TestBatchHandlerPerItemDeadline: with every engine step slowed well
// past 1ms, an item carrying timeout_ms=1 expires alone (504) while its
// undeadlined sibling completes.
func TestBatchHandlerPerItemDeadline(t *testing.T) {
	svc := service.New(service.Config{
		QueueDepth: 8, Workers: 2, MaxVertices: 256,
		Fault: fault.New(fault.Config{Seed: 1, StepDelayP: 1.0, StepDelay: 50 * time.Millisecond}),
	})
	t.Cleanup(svc.Close)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)

	resp := decodeBatch(t, postBatch(t, h, "", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: edgeList(t, graph.Path(6)), TimeoutMS: 1, NoCache: true},
		{Graph: edgeList(t, graph.Star(6)), NoCache: true},
	}}))
	if resp.Items[0].Status != http.StatusGatewayTimeout {
		t.Errorf("deadlined item: status = %d (error %q), want 504", resp.Items[0].Status, resp.Items[0].Error)
	}
	if resp.Items[1].Status != http.StatusOK {
		t.Errorf("sibling: status = %d (error %q), want 200", resp.Items[1].Status, resp.Items[1].Error)
	}
}

// TestBatchHandlerClientDisconnect: a client gone before the batch runs
// surfaces as per-item 499 outcomes — the admission itself already
// succeeded, so the contract stays per-item even for abandonment.
func TestBatchHandlerClientDisconnect(t *testing.T) {
	svc := newTestService(t)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)

	body, err := json.Marshal(cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: edgeList(t, graph.Path(5)), NoCache: true},
		{Graph: edgeList(t, graph.Cycle(7)), NoCache: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/v1/components/batch", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h(w, r)
	resp := decodeBatch(t, w)
	for i, oc := range resp.Items {
		if oc.Status != 499 {
			t.Errorf("item %d after disconnect: status = %d (error %q), want 499", i, oc.Status, oc.Error)
		}
	}
}

// TestBatchHandlerLabelsToggle: ?labels=0 strips labels from successful
// outcomes without touching the rest of the payload.
func TestBatchHandlerLabelsToggle(t *testing.T) {
	svc := newTestService(t)
	h := batchHandler(newStandaloneNode(t, svc), 1<<20)
	resp := decodeBatch(t, postBatch(t, h, "?labels=0", cluster.WireBatchRequest{Items: []cluster.WireItem{
		{Graph: edgeList(t, graph.Path(4))},
	}}))
	if oc := resp.Items[0]; oc.Status != http.StatusOK || oc.Labels != nil || oc.N != 4 {
		t.Fatalf("labels=0 outcome: %+v", oc)
	}
}

func TestClusterHandlerOwnerHeader(t *testing.T) {
	svc := newTestService(t)
	node := newStandaloneNode(t, svc)
	h := clusterComponentsHandler(node, 1<<20, false)

	w := postComponents(t, h, "", "4 2\n0 1\n2 3\n")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (body %q), want 200", w.Code, w.Body.String())
	}
	if got := w.Header().Get(cluster.OwnerHeader); got != "0" {
		t.Errorf("%s = %q, want \"0\" on a single-member ring", cluster.OwnerHeader, got)
	}
	var resp componentsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Owner != 0 || resp.Served != 0 || resp.Proxied {
		t.Errorf("routing provenance: owner=%d served=%d proxied=%v, want 0/0/false",
			resp.Owner, resp.Served, resp.Proxied)
	}
	if resp.Components != 2 {
		t.Errorf("components = %d, want 2", resp.Components)
	}
}

// TestClusterHandlerOwnerHeaderTwoMembers: on a two-member ring the
// header names the owner of each key. Member 1's URL refuses
// connections, so its keys take the local fallback on member 0.
func TestClusterHandlerOwnerHeaderTwoMembers(t *testing.T) {
	svc := newTestService(t)
	node, err := buildCluster(svc, clusterFlags{
		peersCSV: "http://127.0.0.1:18090,http://127.0.0.1:1",
		self:     0,
		mode:     "proxy",
	})
	if err != nil {
		t.Fatal(err)
	}
	h := clusterComponentsHandler(node, 1<<20, false)
	for _, member := range []int{0, 1} {
		w := postComponents(t, h, "?labels=0", edgeList(t, graphOwnedByMember(t, node, member)))
		if w.Code != http.StatusOK {
			t.Fatalf("member %d key: status = %d (body %q), want 200", member, w.Code, w.Body.String())
		}
		if got, want := w.Header().Get(cluster.OwnerHeader), strconv.Itoa(member); got != want {
			t.Errorf("member %d key: %s = %q, want %q", member, cluster.OwnerHeader, got, want)
		}
		var resp componentsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Owner != member || resp.Served != 0 || resp.FallbackLocal != (member == 1) {
			t.Errorf("member %d key: owner=%d served=%d fallback_local=%v", member, resp.Owner, resp.Served, resp.FallbackLocal)
		}
	}
}

// graphOwnedByMember searches small path graphs for one the ring places
// on the wanted member.
func graphOwnedByMember(t *testing.T, node *cluster.Node, member int) *graph.Graph {
	t.Helper()
	for n := 2; n < 2000; n++ {
		g := graph.Path(n)
		if node.Owner(g.Fingerprint()) == member {
			return g
		}
	}
	t.Fatalf("no small path graph owned by member %d", member)
	return nil
}

// TestStatsResponseShape: /v1/stats keeps the flat service fields
// (backward compatibility for existing clients) and nests the cluster
// snapshot under "cluster".
func TestStatsResponseShape(t *testing.T) {
	svc := newTestService(t)
	node := newStandaloneNode(t, svc)
	if _, err := svc.Submit(context.Background(), service.Request{Graph: graph.Path(3)}); err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(statsResponse{Stats: svc.Stats(), Cluster: node.Stats()})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"completed", "queue_capacity", "cache_hits", "cluster"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats response missing %q (keys: %d)", key, len(m))
		}
	}
	var cs cluster.Stats
	if err := json.Unmarshal(m["cluster"], &cs); err != nil {
		t.Fatalf("cluster snapshot does not decode: %v", err)
	}
	if len(cs.Members) != 1 || cs.Members[0] != 0 {
		t.Errorf("cluster members = %v, want [0]", cs.Members)
	}
}

func TestBuildClusterValidation(t *testing.T) {
	svc := newTestService(t)
	for _, mode := range []string{"nonsense", "federate", "redirect", ""} {
		_, err := buildCluster(svc, clusterFlags{mode: mode})
		if err == nil {
			t.Errorf("-cluster-mode %q accepted", mode)
		} else if !strings.Contains(err.Error(), "proxy") {
			t.Errorf("-cluster-mode %q: error %q does not name proxy", mode, err)
		}
	}
	if _, err := buildCluster(svc, clusterFlags{mode: " Proxy "}); err != nil {
		t.Errorf("-cluster-mode \" Proxy \" rejected: %v", err)
	}
	if _, err := buildCluster(svc, clusterFlags{
		peersCSV: "http://a,http://b", self: 2, mode: "proxy",
	}); err == nil {
		t.Error("-self outside -peers range accepted")
	}
}

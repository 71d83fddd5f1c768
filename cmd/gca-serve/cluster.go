package main

// The sharded serving tier of gca-serve: N replicas form a static peer
// ring (-peers, -self; without -peers a one-member ring), single
// requests route to their shard owner by consistent hashing on the
// graph fingerprint (a non-owner proxies to the owner), and POST
// /v1/components/batch admits many graphs under one queue ticket,
// splitting them across owners.
// internal/cluster holds the routing machinery; this file is the HTTP
// skin.

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcacc/internal/cluster"
	"gcacc/internal/service"
)

// clusterFlags carries the parsed -peers/-self/-cluster-* flags.
type clusterFlags struct {
	peersCSV     string
	self         int
	mode         string
	peerBudget   time.Duration
	vnodes       int
	batchItems   int
	batchTickets int
}

// buildCluster turns the flags into a wired node. Standalone (-peers
// empty) yields a single-member ring: batch admission still works, and
// every key is owned locally. -cluster-mode accepts only proxy, the one
// routing mode.
func buildCluster(svc *service.Service, f clusterFlags) (*cluster.Node, error) {
	if !strings.EqualFold(strings.TrimSpace(f.mode), "proxy") {
		return nil, fmt.Errorf("-cluster-mode %q: proxy is the only mode", f.mode)
	}

	members := []int{0}
	self := 0
	var peerURLs []string
	if f.peersCSV != "" {
		for _, u := range strings.Split(f.peersCSV, ",") {
			peerURLs = append(peerURLs, strings.TrimRight(strings.TrimSpace(u), "/"))
		}
		members = make([]int, len(peerURLs))
		for i := range members {
			members[i] = i
		}
		if f.self < 0 || f.self >= len(peerURLs) {
			return nil, fmt.Errorf("-self %d outside -peers range [0,%d)", f.self, len(peerURLs))
		}
		self = f.self
	}

	node, err := cluster.NewNode(svc, cluster.Config{
		Self:          self,
		Members:       members,
		VNodes:        f.vnodes,
		PeerBudget:    f.peerBudget,
		BatchTickets:  f.batchTickets,
		MaxBatchItems: f.batchItems,
	})
	if err != nil {
		return nil, err
	}
	if len(peerURLs) > 1 {
		peers := make(map[int]cluster.Peer, len(peerURLs)-1)
		for i, u := range peerURLs {
			if i != self {
				peers[i] = cluster.NewHTTPPeer(u, nil)
			}
		}
		node.SetPeers(peers)
		log.Printf("gca-serve: cluster member %d of %d (proxy mode, peer budget %s)",
			self, len(peerURLs), node.Config().PeerBudget)
	}
	return node, nil
}

// clusterComponentsHandler serves POST /v1/components on every
// deployment; a standalone server is a one-member ring. The request
// routes to its shard owner, and every response carries
// X-GCA-Shard-Owner. The graph is hashed at most once here: OwnerOf
// leaves the fingerprint in req for Submit and the service.
func clusterComponentsHandler(node *cluster.Node, maxBody int64, chaos bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := parseComponents(w, r, maxBody, chaos)
		if !ok {
			return
		}
		owner := node.OwnerOf(&req)
		w.Header().Set(cluster.OwnerHeader, strconv.Itoa(owner))
		res, err := node.Submit(r.Context(), req)
		if err != nil {
			writeError(w, cluster.StatusOf(err), err)
			return
		}
		resp := componentsResponse{
			N:             req.Edges.N(),
			Components:    res.Components,
			Engine:        res.Engine,
			Cached:        res.Cached,
			Coalesced:     res.Coalesced,
			Degraded:      res.Degraded,
			Retries:       res.Retries,
			Generations:   res.Generations,
			PRAMSteps:     res.PRAMSteps,
			WaitUS:        res.Wait.Microseconds(),
			RunUS:         res.Run.Microseconds(),
			Owner:         res.Owner,
			Served:        res.Served,
			Proxied:       res.Proxied,
			FallbackLocal: res.FallbackLocal,
		}
		if r.URL.Query().Get("labels") != "0" {
			resp.Labels = res.Labels
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// batchHandler serves POST /v1/components/batch: a WireBatchRequest in,
// one WireOutcome per item out, in order. The response is 200 whenever
// the batch was admitted — failures are per-item (status 422, 504, …),
// never all-or-nothing. Admission failures map to 400 (empty), 413
// (too many items), 429 (no free batch ticket) or 503 (draining).
func batchHandler(node *cluster.Node, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req cluster.WireBatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			writeError(w, bodyStatus(err), fmt.Errorf("decoding request body: %w", err))
			return
		}
		items := make([]cluster.BatchItem, len(req.Items))
		for i, wi := range req.Items {
			items[i] = cluster.DecodeWireItem(wi)
		}
		outs, err := node.SubmitBatch(r.Context(), items)
		if err != nil {
			writeError(w, cluster.StatusOf(err), err)
			return
		}
		withLabels := r.URL.Query().Get("labels") != "0"
		resp := cluster.WireBatchResponse{Items: make([]cluster.WireOutcome, len(outs))}
		for i, oc := range outs {
			resp.Items[i] = cluster.EncodeOutcome(oc, withLabels)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// statsResponse nests the cluster snapshot under the service stats; the
// embedded struct keeps the JSON surface of /v1/stats
// backward-compatible for clients that decode service.Stats alone.
type statsResponse struct {
	service.Stats
	Cluster cluster.Stats `json:"cluster"`
}

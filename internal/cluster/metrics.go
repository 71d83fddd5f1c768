package cluster

import (
	"gcacc/internal/fault"
	"gcacc/internal/metrics"
)

// nodeMetrics counts routing events on one replica.
// Everything is an exact integer behind an atomic (internal/metrics),
// snapshotted by Stats for /v1/stats and the expvar surface.
type nodeMetrics struct {
	submitted     metrics.Counter // cluster-routed submissions accepted for routing
	ownedLocal    metrics.Counter // keys this replica owns → local service
	routedRemote  metrics.Counter // keys another member owns
	coalesced     metrics.Counter // non-owner requests that joined an in-flight twin
	proxied       metrics.Counter // requests answered by the owner via peer Compute
	fallbackLocal metrics.Counter // owner unreachable → computed locally

	peerCalls  metrics.Counter // outgoing peer calls attempted (incl. refused)
	peerErrors metrics.Counter // outgoing peer calls that failed or were refused

	peerServed  metrics.Counter // incoming peer calls served for other members
	peerBatches metrics.Counter // incoming peer sub-batches served

	batches       metrics.Counter // batches admitted (one ticket each)
	batchItems    metrics.Counter // items across admitted batches
	batchDedup    metrics.Counter // duplicate items coalesced inside a batch
	batchRejected metrics.Counter // batches refused (empty, oversized, no ticket)
}

// Stats is one replica's routing snapshot, nested under the service
// stats on /v1/stats and published as expvar gcacc_cluster.
type Stats struct {
	Self    int   `json:"self"`
	Members []int `json:"members"`
	Down    bool  `json:"down,omitempty"`

	Submitted     int64 `json:"submitted"`
	OwnedLocal    int64 `json:"owned_local"`
	RoutedRemote  int64 `json:"routed_remote"`
	Coalesced     int64 `json:"coalesced"`
	Proxied       int64 `json:"proxied"`
	FallbackLocal int64 `json:"fallback_local"`

	PeerCalls  int64 `json:"peer_calls"`
	PeerErrors int64 `json:"peer_errors"`

	PeerServed  int64 `json:"peer_served"`
	PeerBatches int64 `json:"peer_batches"`

	Batches       int64 `json:"batches"`
	BatchItems    int64 `json:"batch_items"`
	BatchDedup    int64 `json:"batch_dedup"`
	BatchRejected int64 `json:"batch_rejected"`

	// Faults snapshots the injected peer-fault counters when a fault
	// injector is wired (chaos tiers only).
	Faults *fault.Counters `json:"faults,omitempty"`
}

// Stats snapshots the replica's routing counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Self:    n.cfg.Self,
		Members: append([]int(nil), n.cfg.Members...),
		Down:    n.down.Load(),

		Submitted:     n.metrics.submitted.Value(),
		OwnedLocal:    n.metrics.ownedLocal.Value(),
		RoutedRemote:  n.metrics.routedRemote.Value(),
		Coalesced:     n.metrics.coalesced.Value(),
		Proxied:       n.metrics.proxied.Value(),
		FallbackLocal: n.metrics.fallbackLocal.Value(),

		PeerCalls:  n.metrics.peerCalls.Value(),
		PeerErrors: n.metrics.peerErrors.Value(),

		PeerServed:  n.metrics.peerServed.Value(),
		PeerBatches: n.metrics.peerBatches.Value(),

		Batches:       n.metrics.batches.Value(),
		BatchItems:    n.metrics.batchItems.Value(),
		BatchDedup:    n.metrics.batchDedup.Value(),
		BatchRejected: n.metrics.batchRejected.Value(),
	}
	if n.cfg.Fault != nil {
		c := n.cfg.Fault.Counters()
		s.Faults = &c
	}
	return s
}

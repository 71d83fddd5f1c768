package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gcacc"
	"gcacc/internal/fault"
	"gcacc/internal/service"
)

// Cluster-tier errors. The HTTP layer maps these onto status codes
// (ErrNodeDown → 503, ErrBatchBusy → 429, ErrEmptyBatch → 400,
// ErrBatchTooLarge → 413).
var (
	// ErrNodeDown rejects work on a stopped replica — the in-process
	// equivalent of a connection refused by a dead process.
	ErrNodeDown = errors.New("cluster: replica is stopped")
	// ErrPeerDown reports a peer call that could not reach its target.
	// It is transient by construction: the caller degrades to local
	// compute.
	ErrPeerDown = errors.New("cluster: peer unreachable")
	// ErrEmptyBatch rejects a batch with no items.
	ErrEmptyBatch = errors.New("cluster: empty batch")
	// ErrBatchTooLarge rejects a batch above Config.MaxBatchItems.
	ErrBatchTooLarge = errors.New("cluster: batch exceeds the item cap")
	// ErrBatchBusy rejects a batch when every batch admission ticket is
	// taken — the batch-level analogue of service.ErrQueueFull.
	ErrBatchBusy = errors.New("cluster: batch admission tickets exhausted")
)

// Mode names how a replica handles a key it does not own. Proxy is the
// one mode; the type stays so configurations that name it keep
// compiling.
type Mode int

// ModeProxy forwards the whole request to the shard owner: the owner's
// admission queue, cache and in-flight coalescing serve it, so one
// replica's cache is authoritative per key and identical concurrent
// requests cluster-wide collapse onto one computation.
const ModeProxy Mode = 0

// Config describes one replica's view of the static peer ring.
type Config struct {
	// Self is this replica's member id; it must appear in Members.
	Self int
	// Members is the static peer ring (including Self). Ownership is a
	// pure function of (Members, VNodes, fingerprint), so every replica
	// with the same config computes the same placement.
	Members []int
	// VNodes is the virtual-node count per member (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// Mode is the routing of non-owned keys; ModeProxy (the zero
	// value) is the only one NewNode accepts.
	Mode Mode
	// PeerBudget bounds every peer call: a peer that does not answer
	// within the budget is treated as dead and the request degrades to
	// local compute. <= 0 selects 100ms.
	PeerBudget time.Duration
	// BatchTickets bounds concurrently admitted batches — the "one queue
	// ticket" of batch admission: a batch occupies one ticket regardless
	// of its item count, and a replica with no free ticket rejects with
	// ErrBatchBusy (→ 429) instead of queueing unbounded work. <= 0
	// selects 4.
	BatchTickets int
	// MaxBatchItems bounds the item count of one batch (→ 413 above).
	// <= 0 selects 256.
	MaxBatchItems int
	// BatchConcurrency bounds how many items of one batch compute
	// concurrently on a replica, keeping a wide batch from monopolising
	// the admission queue. <= 0 selects 8.
	BatchConcurrency int
	// Fault, if non-nil, injects the peererr/peerstall schedule into
	// every outgoing peer call (see internal/fault) — the cluster chaos
	// tier's dead-peer and slow-peer faults.
	Fault *fault.Injector
}

// Result is a cluster-routed result: the serving-layer result plus
// routing provenance.
type Result struct {
	*service.Result
	// Owner is the shard owner of the request's fingerprint.
	Owner int `json:"owner"`
	// Served is the member whose service produced (or cache-served) the
	// labels: the owner when proxied, Self otherwise.
	Served int `json:"served"`
	// Proxied reports the request was computed at the owner via a peer
	// call.
	Proxied bool `json:"proxied,omitempty"`
	// FallbackLocal reports the owner was unreachable (dead peer, budget
	// exceeded, injected fault) and the request degraded to local
	// compute — the documented failure mode of a static ring.
	FallbackLocal bool `json:"fallback_local,omitempty"`
}

// Peer is one remote replica as seen from a node: the minimal RPC
// surface of the sharded tier. The in-process transport (LocalPeer)
// backs the conformance and chaos tiers; the HTTP transport (HTTPPeer)
// backs real deployments. Implementations must honour ctx deadlines —
// the caller's peer budget rides on them.
type Peer interface {
	// Compute runs one request at the peer (its queue, cache and
	// coalescing included).
	Compute(ctx context.Context, req service.Request) (*service.Result, error)
	// ComputeBatch runs a pre-routed sub-batch locally at the peer and
	// returns one outcome per item, in order.
	ComputeBatch(ctx context.Context, items []BatchItem) ([]ItemOutcome, error)
}

// peerFlight is one in-progress non-owner computation; concurrent
// identical requests on this replica join it instead of issuing
// duplicate peer calls (single-flight across the proxy path).
type peerFlight struct {
	done chan struct{}
	res  *Result
	err  error
}

type flightKey struct {
	fp     [32]byte
	engine gcacc.Engine
}

// Node is one replica of the sharded tier: a local serving layer plus
// the ring view and peer clients. Create with NewNode, wire peers with
// SetPeers, stop the underlying service separately (Node does not own
// it).
type Node struct {
	cfg  Config
	ring *Ring
	svc  *service.Service
	down atomic.Bool

	mu      sync.Mutex
	peers   map[int]Peer
	flights map[flightKey]*peerFlight

	batchGate chan struct{}
	metrics   nodeMetrics
}

// NewNode builds a replica over an existing serving layer. The config's
// Members must include Self; peers for the other members are wired with
// SetPeers (a member with no peer set is treated as down).
func NewNode(svc *service.Service, cfg Config) (*Node, error) {
	if svc == nil {
		return nil, errors.New("cluster: nil service")
	}
	if len(cfg.Members) == 0 {
		cfg.Members = []int{cfg.Self}
	}
	found := false
	seen := map[int]bool{}
	for _, m := range cfg.Members {
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member id %d", m)
		}
		seen[m] = true
		if m == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self id %d not in members %v", cfg.Self, cfg.Members)
	}
	if cfg.Mode != ModeProxy {
		return nil, fmt.Errorf("cluster: unknown mode %d (proxy is the only mode)", cfg.Mode)
	}
	if cfg.PeerBudget <= 0 {
		cfg.PeerBudget = 100 * time.Millisecond
	}
	if cfg.BatchTickets <= 0 {
		cfg.BatchTickets = 4
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.BatchConcurrency <= 0 {
		cfg.BatchConcurrency = 8
	}
	n := &Node{
		cfg:       cfg,
		ring:      NewRing(cfg.Members, cfg.VNodes),
		svc:       svc,
		peers:     make(map[int]Peer),
		flights:   make(map[flightKey]*peerFlight),
		batchGate: make(chan struct{}, cfg.BatchTickets),
	}
	return n, nil
}

// Config returns the resolved configuration (defaults applied).
func (n *Node) Config() Config { return n.cfg }

// Service returns the underlying serving layer.
func (n *Node) Service() *service.Service { return n.svc }

// Self returns this replica's member id.
func (n *Node) Self() int { return n.cfg.Self }

// Owner returns the shard owner of a fingerprint.
func (n *Node) Owner(fp [32]byte) int { return n.ring.Owner(fp) }

// OwnerOf returns the shard owner of req's graph. On a multi-member
// ring it hashes through req.Fingerprint, which first converts a dense
// req.Graph into req.Edges, so the edge list and its key ride along in
// req and no later layer converts or rehashes; a one-member ring owns
// every key and touches nothing here.
func (n *Node) OwnerOf(req *service.Request) int {
	if len(n.cfg.Members) == 1 {
		return n.cfg.Self
	}
	return n.ring.Owner(req.Fingerprint())
}

// SetPeers wires the peer clients for the other ring members. Entries
// for Self are ignored; members without an entry are treated as down
// (every request for them degrades to local compute).
func (n *Node) SetPeers(peers map[int]Peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = make(map[int]Peer, len(peers))
	for m, p := range peers {
		if m == n.cfg.Self || p == nil {
			continue
		}
		n.peers[m] = p
	}
}

// peer returns the client for a member, or nil when none is wired.
func (n *Node) peer(member int) Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[member]
}

// Stop marks the replica down: every Submit/SubmitBatch and every
// incoming peer call is rejected until Start. The underlying service
// keeps running — Stop models a process that stopped answering, and
// Start its restart with a warm cache.
func (n *Node) Stop() { n.down.Store(true) }

// Start clears a Stop.
func (n *Node) Start() { n.down.Store(false) }

// Stopped reports whether the replica is marked down.
func (n *Node) Stopped() bool { return n.down.Load() }

// Submit routes one request: the owner shard serves keys it owns from
// its own queue/cache; non-owned keys are proxied to the owner, with
// single-flight coalescing and local-compute fallback when the owner is
// unreachable within the peer budget. A request whose FP the caller
// already filled is not hashed again.
func (n *Node) Submit(ctx context.Context, req service.Request) (*Result, error) {
	if n.down.Load() {
		return nil, ErrNodeDown
	}
	n.metrics.submitted.Inc()
	if req.EdgeList() == nil {
		return nil, service.ErrNilGraph
	}
	owner := n.OwnerOf(&req)
	if owner == n.cfg.Self {
		n.metrics.ownedLocal.Inc()
		res, err := n.svc.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		return &Result{Result: res, Owner: owner, Served: owner}, nil
	}

	n.metrics.routedRemote.Inc()
	// Single-flight the whole non-owner path: concurrent identical
	// requests on this replica issue one peer call / one local compute
	// between them. NoCache requests opt out, same as in the service.
	if req.NoCache {
		return n.remoteSubmit(ctx, owner, req)
	}
	key := flightKey{fp: req.Fingerprint(), engine: req.Engine} // hashed by OwnerOf
	n.mu.Lock()
	if fl, ok := n.flights[key]; ok {
		n.mu.Unlock()
		n.metrics.coalesced.Inc()
		return awaitFlight(ctx, fl)
	}
	fl := &peerFlight{done: make(chan struct{})}
	n.flights[key] = fl
	n.mu.Unlock()

	res, err := n.remoteSubmit(ctx, owner, req)
	n.mu.Lock()
	delete(n.flights, key)
	n.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// awaitFlight blocks a follower until the leader resolves or its own
// ctx gives up, then hands it a caller-owned copy marked Coalesced.
func awaitFlight(ctx context.Context, fl *peerFlight) (*Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if fl.err != nil {
		return nil, fl.err
	}
	cp := *fl.res
	sr := *fl.res.Result
	sr.Labels = append([]int(nil), fl.res.Result.Labels...)
	sr.Coalesced = true
	cp.Result = &sr
	return &cp, nil
}

// remoteSubmit handles a key owned by another member: proxy it, then
// fall back to local compute when the owner cannot be reached inside
// the peer budget. The caller's own context always wins — an expired
// caller is never "helped" with a local run.
func (n *Node) remoteSubmit(ctx context.Context, owner int, req service.Request) (*Result, error) {
	res, err := n.peerCompute(ctx, owner, req)
	if err == nil {
		return &Result{Result: res, Owner: owner, Served: owner, Proxied: true}, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	n.metrics.fallbackLocal.Inc()
	res, err = n.svc.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Owner: owner, Served: n.cfg.Self, FallbackLocal: true}, nil
}

// beforePeerCall applies the injected fault schedule and accounts the
// call; a non-nil error means the call must not be attempted.
func (n *Node) beforePeerCall(ctx context.Context) error {
	n.metrics.peerCalls.Inc()
	if n.cfg.Fault != nil {
		if err := n.cfg.Fault.BeforePeerCall(ctx); err != nil {
			n.metrics.peerErrors.Inc()
			return err
		}
	}
	return nil
}

// peerCompute proxies one request to a member under the peer budget.
func (n *Node) peerCompute(ctx context.Context, member int, req service.Request) (*service.Result, error) {
	p := n.peer(member)
	if p == nil {
		n.metrics.peerCalls.Inc()
		n.metrics.peerErrors.Inc()
		return nil, fmt.Errorf("%w: member %d has no wired peer", ErrPeerDown, member)
	}
	if err := n.beforePeerCall(ctx); err != nil {
		return nil, err
	}
	pctx, cancel := context.WithTimeout(ctx, n.cfg.PeerBudget)
	defer cancel()
	res, err := p.Compute(pctx, req)
	if err != nil {
		n.metrics.peerErrors.Inc()
		return nil, err
	}
	n.metrics.proxied.Inc()
	return res, nil
}

// LocalPeer is the in-process transport: a Peer that calls another Node
// in the same process directly. It refuses when the target is stopped,
// modelling a dead process — the conformance and chaos tiers run whole
// topologies this way.
type LocalPeer struct{ target *Node }

// NewLocalPeer wraps a node as an in-process peer.
func NewLocalPeer(target *Node) *LocalPeer { return &LocalPeer{target: target} }

// Compute implements Peer.
func (p *LocalPeer) Compute(ctx context.Context, req service.Request) (*service.Result, error) {
	if p.target.Stopped() {
		return nil, ErrPeerDown
	}
	p.target.metrics.peerServed.Inc()
	return p.target.svc.Submit(ctx, req)
}

// ComputeBatch implements Peer.
func (p *LocalPeer) ComputeBatch(ctx context.Context, items []BatchItem) ([]ItemOutcome, error) {
	if p.target.Stopped() {
		return nil, ErrPeerDown
	}
	p.target.metrics.peerServed.Inc()
	p.target.metrics.peerBatches.Inc()
	return p.target.localBatch(ctx, items), nil
}

// Topology is an in-process multi-replica cluster: N nodes over N
// service instances, fully wired with LocalPeers. The conformance
// harness, the chaos soak and gca-loadgen's -replicas mode all drive
// one of these.
type Topology struct {
	Nodes []*Node
	svcs  []*service.Service
}

// NewInProcessTopology builds an R-replica topology. Every replica gets
// its own service built from svcCfg (ExpvarName is cleared — expvar
// panics on duplicate keys) and a node built from nodeCfg with
// Self/Members overridden to the ring 0..replicas-1.
func NewInProcessTopology(replicas int, svcCfg service.Config, nodeCfg Config) (*Topology, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: topology needs >= 1 replica, got %d", replicas)
	}
	svcCfg.ExpvarName = ""
	members := make([]int, replicas)
	for i := range members {
		members[i] = i
	}
	t := &Topology{}
	for i := 0; i < replicas; i++ {
		cfg := nodeCfg
		cfg.Self, cfg.Members = i, members
		svc := service.New(svcCfg)
		node, err := NewNode(svc, cfg)
		if err != nil {
			svc.Close()
			t.Close()
			return nil, err
		}
		t.svcs = append(t.svcs, svc)
		t.Nodes = append(t.Nodes, node)
	}
	for _, node := range t.Nodes {
		peers := make(map[int]Peer, replicas-1)
		for _, other := range t.Nodes {
			if other.cfg.Self != node.cfg.Self {
				peers[other.cfg.Self] = NewLocalPeer(other)
			}
		}
		node.SetPeers(peers)
	}
	return t, nil
}

// Close drains every replica's service.
func (t *Topology) Close() {
	for _, svc := range t.svcs {
		svc.Close()
	}
}

// Stats snapshots every replica.
func (t *Topology) Stats() []Stats {
	out := make([]Stats, len(t.Nodes))
	for i, n := range t.Nodes {
		out[i] = n.Stats()
	}
	return out
}

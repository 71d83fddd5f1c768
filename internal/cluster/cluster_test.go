package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gcacc"
	"gcacc/internal/graph"
	"gcacc/internal/service"
	"gcacc/internal/sparse"
)

// testTopology builds an in-process topology that is torn down with the
// test.
func testTopology(t *testing.T, replicas int, mode Mode) *Topology {
	t.Helper()
	top, err := NewInProcessTopology(replicas, service.Config{}, Config{Mode: mode})
	if err != nil {
		t.Fatalf("NewInProcessTopology: %v", err)
	}
	t.Cleanup(top.Close)
	return top
}

// graphOwnedBy searches deterministic path graphs until one hashes to
// the wanted owner on the topology's ring.
func graphOwnedBy(t *testing.T, top *Topology, owner int) *graph.Graph {
	t.Helper()
	for n := 2; n < 2000; n++ {
		g := graph.Path(n)
		if top.Nodes[0].Owner(g.Fingerprint()) == owner {
			return g
		}
	}
	t.Fatalf("no path graph owned by member %d", owner)
	return nil
}

func wantLabels(g *graph.Graph) []int {
	return graph.ConnectedComponentsUnionFind(g)
}

func labelsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewNodeValidation(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := NewNode(svc, Config{Self: 7, Members: []int{0, 1}}); err == nil {
		t.Fatal("self outside members: want error")
	}
	if _, err := NewNode(svc, Config{Self: 0, Members: []int{0, 1, 1}}); err == nil {
		t.Fatal("duplicate member: want error")
	}
	if _, err := NewNode(nil, Config{Self: 0}); err == nil {
		t.Fatal("nil service: want error")
	}
	if _, err := NewNode(svc, Config{Mode: ModeProxy + 1}); err == nil {
		t.Fatal("mode other than proxy: want error")
	}
	n, err := NewNode(svc, Config{Self: 3})
	if err != nil {
		t.Fatalf("singleton node: %v", err)
	}
	if got := n.Config().Members; len(got) != 1 || got[0] != 3 {
		t.Fatalf("singleton members = %v, want [3]", got)
	}
}

func TestOwnerAgreesAcrossReplicas(t *testing.T) {
	top := testTopology(t, 4, ModeProxy)
	for n := 2; n < 64; n++ {
		fp := graph.Path(n).Fingerprint()
		want := top.Nodes[0].Owner(fp)
		for _, node := range top.Nodes[1:] {
			if got := node.Owner(fp); got != want {
				t.Fatalf("P%d: node %d owner %d, node 0 owner %d", n, node.Self(), got, want)
			}
		}
	}
}

func TestSubmitOwnedLocal(t *testing.T) {
	top := testTopology(t, 1, ModeProxy)
	g := graph.Path(10)
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res.Owner != 0 || res.Served != 0 || res.Proxied || res.FallbackLocal {
		t.Fatalf("single-replica provenance = %+v", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatalf("labels = %v, want %v", res.Labels, wantLabels(g))
	}
}

func TestProxyRouting(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit via non-owner: %v", err)
	}
	if !res.Proxied || res.Owner != 1 || res.Served != 1 {
		t.Fatalf("proxy provenance = owner=%d served=%d proxied=%v", res.Owner, res.Served, res.Proxied)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("proxied labels differ from union-find truth")
	}
	s0, s1 := top.Nodes[0].Stats(), top.Nodes[1].Stats()
	if s0.RoutedRemote != 1 || s0.Proxied != 1 || s0.PeerCalls != 1 {
		t.Fatalf("node 0 stats = %+v", s0)
	}
	if s1.PeerServed != 1 {
		t.Fatalf("node 1 peer_served = %d, want 1", s1.PeerServed)
	}

	// The owner computed it, so the owner's cache is authoritative: a
	// repeat via the other replica proxies again and hits that cache.
	res2, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if !res2.Cached {
		t.Fatal("repeat via proxy should hit the owner's cache")
	}
}

func TestProxyFallbackWhenPeerStopped(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	top.Nodes[1].Stop()

	res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit with dead owner: %v", err)
	}
	if !res.FallbackLocal || res.Served != 0 || res.Owner != 1 {
		t.Fatalf("fallback provenance = %+v", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("fallback labels differ from union-find truth")
	}
	s0 := top.Nodes[0].Stats()
	if s0.FallbackLocal != 1 || s0.PeerErrors != 1 {
		t.Fatalf("node 0 stats after fallback = %+v", s0)
	}

	// Restart: traffic proxies again.
	top.Nodes[1].Start()
	res, err = top.Nodes[0].Submit(context.Background(), service.Request{Graph: g, NoCache: true})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if !res.Proxied {
		t.Fatalf("after restart: provenance = %+v, want proxied", res)
	}
}

func TestSubmitOnStoppedNode(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	top.Nodes[0].Stop()
	_, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: graph.Path(4)})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Submit on stopped node: %v, want ErrNodeDown", err)
	}
	if top.Nodes[0].Stopped() != true {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestNonOwnerSingleFlight(t *testing.T) {
	top := testTopology(t, 2, ModeProxy)
	g := graphOwnedBy(t, top, 1)
	want := wantLabels(g)
	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := top.Nodes[0].Submit(context.Background(), service.Request{Graph: g})
			if err != nil {
				errs[c] = err
				return
			}
			if !labelsEq(res.Labels, want) {
				errs[c] = errors.New("labels mismatch")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	// Every request either led a peer call or joined an in-flight twin.
	s0 := top.Nodes[0].Stats()
	if s0.Coalesced+s0.PeerCalls != clients {
		t.Fatalf("coalesced(%d) + peer_calls(%d) != %d", s0.Coalesced, s0.PeerCalls, clients)
	}
}

func TestHTTPPeerTransport(t *testing.T) {
	// Two real services, two nodes, wired over real HTTP.
	svcA := service.New(service.Config{})
	defer svcA.Close()
	svcB := service.New(service.Config{})
	defer svcB.Close()
	members := []int{0, 1}
	nodeA, err := NewNode(svcA, Config{Self: 0, Members: members, Mode: ModeProxy})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode(svcB, Config{Self: 1, Members: members, Mode: ModeProxy})
	if err != nil {
		t.Fatal(err)
	}
	muxB := http.NewServeMux()
	RegisterPeerHandlers(muxB, nodeB, 1<<20)
	srvB := httptest.NewServer(muxB)
	defer srvB.Close()
	nodeA.SetPeers(map[int]Peer{1: NewHTTPPeer(srvB.URL, srvB.Client())})

	var g *graph.Graph
	for n := 2; n < 2000; n++ {
		if c := graph.Path(n); nodeA.Owner(c.Fingerprint()) == 1 {
			g = c
			break
		}
	}
	if g == nil {
		t.Fatal("no graph owned by member 1")
	}

	res, err := nodeA.Submit(context.Background(), service.Request{Graph: g})
	if err != nil {
		t.Fatalf("Submit over HTTP peer: %v", err)
	}
	if !res.Proxied || res.Served != 1 {
		t.Fatalf("provenance = %+v, want proxied to 1", res)
	}
	if !labelsEq(res.Labels, wantLabels(g)) {
		t.Fatal("HTTP-proxied labels differ from union-find truth")
	}

	// Batch over HTTP.
	peer := NewHTTPPeer(srvB.URL, srvB.Client())
	items := []BatchItem{{Edges: sparse.FromDense(graph.Path(6))}, {Edges: sparse.FromDense(graph.Star(7))}}
	outs, err := peer.ComputeBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("ComputeBatch: %v", err)
	}
	for i, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("item %d: %v", i, oc.Err)
		}
		if !labelsEq(oc.Result.Labels, sparse.ConnectedComponentsUnionFind(items[i].Edges)) {
			t.Fatalf("item %d labels mismatch", i)
		}
	}

	// A stopped node answers 503, which the caller treats as a dead peer.
	nodeB.Stop()
	if _, err := nodeA.Submit(context.Background(), service.Request{Graph: g, NoCache: true}); err != nil {
		t.Fatalf("Submit with stopped HTTP peer should fall back locally: %v", err)
	}
	if s := nodeA.Stats(); s.FallbackLocal != 1 {
		t.Fatalf("fallback_local = %d, want 1", s.FallbackLocal)
	}
}

// TestSuppliedFingerprintIsNotRehashed pins "hash once per replica": a
// request that arrives with FP set is cached and served under that key
// by every layer below the one that hashed — service.Submit, Node.Submit
// on a one-member ring, Node.Submit on the owner in a two-member
// LocalPeer topology, and the owner's sub-batch runner. The supplied key
// deliberately differs from the graph's own fingerprint, so a layer that
// rehashed would cache under the real key instead.
func TestSuppliedFingerprintIsNotRehashed(t *testing.T) {
	g := graph.Path(5)
	real := g.Fingerprint()
	const eng = gcacc.EngineSequential
	// ownedKey returns a key other than g's fingerprint that node owns.
	ownedKey := func(node *Node) [32]byte {
		for i := uint64(1); ; i++ {
			var fp [32]byte
			binary.LittleEndian.PutUint64(fp[:], i*0x9e3779b97f4a7c15)
			if fp != real && node.Owner(fp) == node.Self() {
				return fp
			}
		}
	}
	check := func(name string, svc *service.Service, fp [32]byte, submit func(service.Request) (*service.Result, error)) {
		t.Helper()
		req := service.Request{Graph: g, Engine: eng, FP: fp}
		for i, wantCached := range []bool{false, true} {
			res, err := submit(req)
			if err != nil {
				t.Fatalf("%s: submit %d: %v", name, i, err)
			}
			if res.Cached != wantCached || res.Components != 1 {
				t.Errorf("%s: submit %d: cached=%v components=%d, want cached=%v components=1",
					name, i, res.Cached, res.Components, wantCached)
			}
		}
		// Probe the service's cache directly: a repeat under the
		// supplied key hits, one under the real fingerprint misses.
		ctx := context.Background()
		if res, err := svc.Submit(ctx, req); err != nil || !res.Cached {
			t.Errorf("%s: result not cached under the supplied key (err %v)", name, err)
		}
		if res, err := svc.Submit(ctx, service.Request{Graph: g, Engine: eng, FP: real}); err != nil || res.Cached {
			t.Errorf("%s: result cached under a rehashed key (err %v)", name, err)
		}
	}
	ctx := context.Background()

	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	check("service.Submit", svc, [32]byte{1}, func(req service.Request) (*service.Result, error) {
		return svc.Submit(ctx, req)
	})

	solo, err := NewNode(service.New(service.Config{}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Service().Close)
	check("one-member Node.Submit", solo.Service(), ownedKey(solo), func(req service.Request) (*service.Result, error) {
		res, err := solo.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		return res.Result, nil
	})

	top := testTopology(t, 2, ModeProxy)
	for _, owner := range top.Nodes {
		owner := owner
		check(fmt.Sprintf("two-member Node.Submit on owner %d", owner.Self()), owner.Service(), ownedKey(owner),
			func(req service.Request) (*service.Result, error) {
				res, err := owner.Submit(ctx, req)
				if err != nil {
					return nil, err
				}
				if res.Owner != owner.Self() || res.Proxied {
					t.Errorf("owned key routed away: owner=%d proxied=%v", res.Owner, res.Proxied)
				}
				return res.Result, nil
			})
	}

	// A fresh topology: the probes above cached g under its real key.
	peer := testTopology(t, 2, ModeProxy).Nodes[1]
	check("owner sub-batch", peer.Service(), [32]byte{2}, func(req service.Request) (*service.Result, error) {
		oc := peer.localBatch(ctx, []BatchItem{{Edges: req.EdgeList(), Engine: req.Engine, FP: req.FP}})[0]
		if oc.Err != nil {
			return nil, oc.Err
		}
		return oc.Result.Result, nil
	})
}

func TestStatusOf(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 200},
		{service.ErrQueueFull, 429},
		{ErrBatchBusy, 429},
		{service.ErrTooLarge, 413},
		{ErrBatchTooLarge, 413},
		{service.ErrDenseOnly, 422},
		{service.ErrClosed, 503},
		{service.ErrBreakerOpen, 503},
		{ErrNodeDown, 503},
		{ErrPeerDown, 503},
		{ErrEmptyBatch, 400},
		{service.ErrInvalidEngine, 400},
		{service.ErrNilGraph, 400},
		{service.ErrEnginePanic, 500},
		{context.Canceled, StatusClientClosedRequest},
		{context.DeadlineExceeded, 504},
		{&StatusError{Code: 422, Msg: "x"}, 422},
		{errors.New("mystery"), 500},
		{fmt.Errorf("wrapped: %w", context.Canceled), StatusClientClosedRequest},
		{fmt.Errorf("wrapped: %w", service.ErrQueueFull), 429},
	} {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestWireItemRoundTrip(t *testing.T) {
	g := sparse.FromDense(graph.Star(9))
	wi, err := EncodeWireItem(BatchItem{Edges: g, Engine: gcacc.EnginePRAM, NoCache: true})
	if err != nil {
		t.Fatalf("EncodeWireItem: %v", err)
	}
	it := DecodeWireItem(wi)
	if it.Err != nil {
		t.Fatalf("DecodeWireItem: %v", it.Err)
	}
	if !it.Edges.Equal(g) || it.Engine != gcacc.EnginePRAM || !it.NoCache {
		t.Fatalf("round trip = %+v", it)
	}

	bad := DecodeWireItem(WireItem{Graph: "not a graph"})
	if bad.Err == nil || StatusOf(bad.Err) != 400 {
		t.Fatalf("malformed graph should decode to a 400 item error, got %v", bad.Err)
	}
	badEng := DecodeWireItem(WireItem{Graph: "2 1\n0 1\n", Engine: "warp"})
	if badEng.Err == nil || StatusOf(badEng.Err) != 400 {
		t.Fatalf("unknown engine should decode to a 400 item error, got %v", badEng.Err)
	}
}

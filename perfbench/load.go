package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"
)

// httpReq is one request of a client's sequence.
type httpReq struct {
	method, path string
	body         []byte
}

// record is one timed request as the client saw it.
type record struct {
	seq    int // position in the client's sequence
	phase  int
	lat    time.Duration // send → last body byte
	end    time.Duration // completion, since the phase start
	status int
	body   []byte
	err    error
}

// client is one closed-loop caller with its own keep-alive connection:
// it sends its next request only after the previous reply is read.
type client struct {
	id   int
	base string
	hc   *http.Client
	next int // next sequence position
	recs []record
}

func newClient(id int, base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(ctx context.Context, r httpReq) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, body, err
}

// expect sends a set-up request that must answer want.
func (c *client) expect(ctx context.Context, r httpReq, want int) error {
	status, body, err := c.do(ctx, r)
	if err != nil {
		return fmt.Errorf("set-up %s %s: %w", r.method, r.path, err)
	}
	if status != want {
		return fmt.Errorf("set-up %s %s: status %d, want %d: %s", r.method, r.path, status, want, bytes.TrimSpace(body))
	}
	return nil
}

// sequence yields request i of client c; it fails when a finite
// sequence is exhausted.
type sequence func(c, i int) (httpReq, error)

// runPhase drives every client in a closed loop until dur has passed
// and returns the time until the last reply. A request sent before the
// deadline is completed and counted.
func runPhase(ctx context.Context, clients []*client, seq sequence, phase int, dur time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(dur)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, err := seq(c.id, c.next)
				if err != nil {
					errs[k] = err
					return
				}
				t0 := time.Now()
				status, body, err := c.do(ctx, r)
				t1 := time.Now()
				c.recs = append(c.recs, record{seq: c.next, phase: phase, lat: t1.Sub(t0), end: t1.Sub(start),
					status: status, body: body, err: err})
				c.next++
			}
		}(k, c)
	}
	wg.Wait()
	var last time.Duration
	for k, c := range clients {
		if errs[k] != nil {
			return 0, errs[k]
		}
		for i := len(c.recs) - 1; i >= 0 && c.recs[i].phase == phase; i-- {
			last = max(last, c.recs[i].end)
		}
	}
	return last, nil
}

// outcome is the verdict on one record.
type outcome struct {
	ok    bool // 200 with a correct reply
	wrong bool // 200 with a wrong labelling, epoch or component count
	read  bool // counts toward latency_p50_ms / latency_tail_ms
	write bool // counts toward write_p50_ms
	lat   time.Duration
	phase int
}

// componentsReply is the part of a POST /v1/components reply the
// benchmark checks.
type componentsReply struct {
	Components int   `json:"components"`
	Cached     bool  `json:"cached"`
	Coalesced  bool  `json:"coalesced"`
	Labels     []int `json:"labels"`
}

// verifyComponents checks every reply against the oracle labelling of
// the graph it was asked about. Every request is a read; the ones that
// ran the engine and filled the cache (not cached, not coalesced) are
// the component workloads' writes.
func verifyComponents(in *componentInputs, c int, recs []record) []outcome {
	out := make([]outcome, len(recs))
	for k, r := range recs {
		o := outcome{lat: r.lat, phase: r.phase, read: true}
		if r.err == nil && r.status == http.StatusOK {
			var rep componentsReply
			want := in.graphs[in.index(c, r.seq)].labels
			if err := json.Unmarshal(r.body, &rep); err != nil || !slices.Equal(rep.Labels, want) ||
				rep.Components != countLabels(want) {
				o.wrong = true
			} else {
				o.ok = true
				o.write = !rep.Cached && !rep.Coalesced
			}
		}
		out[k] = o
	}
	return out
}

func countLabels(labels []int) int {
	n := 0
	for v, l := range labels {
		if v == l {
			n++
		}
	}
	return n
}

// streamReply covers both stream replies: a mutation (epoch, applied)
// and a components snapshot (epoch, components, labels, recomputed).
type streamReply struct {
	Epoch      uint64 `json:"epoch"`
	Components int    `json:"components"`
	Labels     []int  `json:"labels"`
	Recomputed bool   `json:"recomputed"`
}

// verifyStream replays the client's executed prefix through the oracle
// and checks the epoch of every reply, the component count of every
// query, and the full labelling of the sampled queries. Queries are the
// reads; appends are the writes.
func verifyStream(sc *streamClient, recs []record) []outcome {
	o := newStreamOracle(sc.n)
	for i := range sc.preload {
		o.mutate(&sc.preload[i])
	}
	out := make([]outcome, len(recs))
	for k, r := range recs {
		op := &sc.ops[r.seq]
		v := outcome{lat: r.lat, phase: r.phase, read: op.kind == opQuery, write: op.kind == opAppend}
		var epoch uint64
		var comps int
		var recomputed bool
		var labels []int
		if op.kind == opQuery {
			epoch, comps, recomputed = o.query()
			if op.labels {
				labels = o.uf.labels()
			}
		} else {
			epoch = o.mutate(op)
		}
		if r.err == nil && r.status == http.StatusOK {
			var rep streamReply
			bad := json.Unmarshal(r.body, &rep) != nil || rep.Epoch != epoch
			if op.kind == opQuery {
				bad = bad || rep.Components != comps || rep.Recomputed != recomputed ||
					(op.labels && !slices.Equal(rep.Labels, labels))
			}
			v.ok, v.wrong = !bad, bad
		}
		out[k] = v
	}
	return out
}

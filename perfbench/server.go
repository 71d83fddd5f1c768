package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gcacc/internal/cluster"
	"gcacc/internal/service"
	"gcacc/internal/stream"
)

// serverProc is one running gca-serve process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
	log  *os.File
}

// freePorts reserves k loopback ports by listening and closing; the
// kernel does not hand a just-closed port out again at once.
func freePorts(k int) ([]int, error) {
	ports := make([]int, k)
	lns := make([]net.Listener, k)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		if err := ln.Close(); err != nil {
			return nil, fmt.Errorf("releasing a port: %w", err)
		}
	}
	return ports, nil
}

// startServer execs the gca-serve binary with args; its log goes to
// logPath. env adds to the inherited environment.
func startServer(bin string, port int, args, env []string, logPath string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating server log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // the start error is the one to report
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan error, 1), log: logf}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// waitReady polls /healthz until it answers 200 or the process exits.
func (p *serverProc) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("gca-serve at %s exited before becoming ready: %v", p.url, err)
		case <-ctx.Done():
			return fmt.Errorf("gca-serve at %s not ready: %w", p.url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (gca-serve drains and exits), escalates to SIGKILL
// after 10 s, and waits for the process to end.
func (p *serverProc) stop() error {
	defer func() { _ = p.log.Close() }() // log is diagnostics only
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling gca-serve: %w", err)
	}
	select {
	case <-p.done:
		return nil
	case <-time.After(10 * time.Second):
	}
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("killing gca-serve: %w", err)
	}
	<-p.done
	return nil
}

// memMB reads a resident-set figure of the process from
// /proc/<pid>/status: "VmRSS:" (now) or "VmHWM:" (high-water mark).
func (p *serverProc) memMB(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == key {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", key, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	return 0, fmt.Errorf("no %s line in server status", key)
}

// sumMB adds a memory figure over the replicas.
func sumMB(procs []*serverProc, key string) (float64, error) {
	total := 0.0
	for _, p := range procs {
		mb, err := p.memMB(key)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// rssSampler records the replicas' summed VmRSS every interval until
// stopped.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(procs []*serverProc, every time.Duration) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			mb, err := sumMB(procs, "VmRSS:")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.stopc)
	<-s.done
	return s.samples, s.err
}

// drain discards a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a failed drain only costs the connection
	_ = resp.Body.Close()                 // a read-side close has nothing to report
}

// serverStats is one scrape of a replica: /v1/stats (service counters
// with the cluster block) and the gcacc_stream expvar.
type serverStats struct {
	service.Stats
	Cluster cluster.Stats        `json:"cluster"`
	Stream  stream.RegistryStats `json:"-"`
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func scrape(ctx context.Context, p *serverProc) (serverStats, error) {
	var s serverStats
	if err := getJSON(ctx, p.url+"/v1/stats", &s); err != nil {
		return s, err
	}
	var vars struct {
		Stream *stream.RegistryStats `json:"gcacc_stream"`
	}
	if err := getJSON(ctx, p.url+"/debug/vars", &vars); err != nil {
		return s, err
	}
	if vars.Stream != nil {
		s.Stream = *vars.Stream
	}
	return s, nil
}

// counterDelta is the change of the scraped counters over the timed
// phase, summed over replicas (the cluster counters are the entry
// replica's).
type counterDelta struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	Coalesced      int64 `json:"coalesced"`
	Rejected       int64 `json:"rejected"`
	Completed      int64 `json:"completed"`
	ClusterSubmit  int64 `json:"cluster_submitted"`
	Proxied        int64 `json:"proxied"`
	PeerCalls      int64 `json:"peer_calls"`
	PeerErrors     int64 `json:"peer_errors"`
	FallbackLocal  int64 `json:"fallback_local"`
	StreamQueries  int64 `json:"stream_queries"`
	StreamRecomps  int64 `json:"stream_recomputes"`
	StreamAppends  int64 `json:"stream_appends"`
	StreamDeletes  int64 `json:"stream_deletes"`
	StreamConflict int64 `json:"stream_epoch_conflicts"`
}

func deltaOf(before, after []serverStats) counterDelta {
	var d counterDelta
	for i := range after {
		b, a := before[i], after[i]
		d.CacheHits += a.CacheHits - b.CacheHits
		d.CacheMisses += a.CacheMisses - b.CacheMisses
		d.Coalesced += a.Coalesced - b.Coalesced
		d.Rejected += (a.RejectedFull + a.RejectedInvalid + a.RejectedClosed + a.RejectedExpired) -
			(b.RejectedFull + b.RejectedInvalid + b.RejectedClosed + b.RejectedExpired)
		d.Completed += a.Completed - b.Completed
		d.StreamQueries += a.Stream.Queries - b.Stream.Queries
		d.StreamRecomps += a.Stream.Recomputes - b.Stream.Recomputes
		d.StreamAppends += a.Stream.Appends - b.Stream.Appends
		d.StreamDeletes += a.Stream.Deletes - b.Stream.Deletes
		d.StreamConflict += a.Stream.EpochConflicts - b.Stream.EpochConflicts
	}
	b, a := before[0].Cluster, after[0].Cluster
	d.ClusterSubmit = a.Submitted - b.Submitted
	d.Proxied = a.Proxied - b.Proxied
	d.PeerCalls = a.PeerCalls - b.PeerCalls
	d.PeerErrors = a.PeerErrors - b.PeerErrors
	d.FallbackLocal = a.FallbackLocal - b.FallbackLocal
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

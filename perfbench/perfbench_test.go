package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildServe builds gca-serve from the enclosing checkout.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gca-serve")
	cmd := exec.Command("go", "build", "-o", bin, "gcacc/cmd/gca-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building gca-serve: %v\n%s", err, out)
	}
	return bin
}

func runTiny(t *testing.T, bin, workload string, traced bool, corrupt func([]byte) []byte) (*result, *provenance) {
	t.Helper()
	b, err := newBench(workload, 7, 0.5, bin, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	b.corrupt = corrupt
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, prov, err := b.run(ctx, traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return res, prov
}

// TestEveryMetricIsPrinted runs every workload of BENCHMARK.json at tiny
// sizes in both modes and checks the result carries exactly the named
// metrics, each with its unit, and that every output was correct.
func TestEveryMetricIsPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("starts gca-serve processes")
	}
	s := readSpec(t)
	bin := buildServe(t)
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, prov := runTiny(t, bin, wl.Name, traced, nil)
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if !res.Correct || res.Attempted < 1 {
				p, _ := json.Marshal(prov)
				t.Errorf("%s traced=%v: correct=%v attempted=%d\n%s", wl.Name, traced, res.Correct, res.Attempted, p)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedOutputFails corrupts the first reply of client 0 and
// expects the run to count it as a failure and report correct=false.
func TestCorruptedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts gca-serve processes")
	}
	bin := buildServe(t)
	corrupt := func(body []byte) []byte {
		var reply map[string]any
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("reply is not JSON: %s", body)
		}
		if labels, ok := reply["labels"].([]any); ok && len(labels) > 0 {
			labels[len(labels)-1] = -1 // no vertex has label -1
		} else {
			reply["epoch"] = reply["epoch"].(float64) + 1
		}
		out, err := json.Marshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, wl := range []string{"dense-gca", "stream-rw"} {
		res, prov := runTiny(t, bin, wl, false, corrupt)
		if res.Correct || res.Failed < 1 || prov.Wrong != 1 {
			t.Errorf("%s: corrupted reply gave correct=%v failed=%d wrong=%d", wl, res.Correct, res.Failed, prov.Wrong)
		}
	}
}

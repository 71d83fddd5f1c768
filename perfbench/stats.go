package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// summary aggregates the verdicts of one phase (or of all, phase < 0).
type summary struct {
	attempted, ok, wrong int
	reads, writes        []time.Duration
}

func summarise(outs []outcome, phase int) summary {
	var s summary
	for _, o := range outs {
		if phase >= 0 && o.phase != phase {
			continue
		}
		s.attempted++
		if o.wrong {
			s.wrong++
		}
		if !o.ok {
			continue
		}
		s.ok++
		if o.read {
			s.reads = append(s.reads, o.lat)
		}
		if o.write {
			s.writes = append(s.writes, o.lat)
		}
	}
	return s
}

// fill adds the summary's counts to the result and provenance.
func (s summary) fill(res *result, prov *provenance) {
	res.Attempted += s.attempted
	res.Failed += s.attempted - s.ok
	prov.Wrong += s.wrong
	res.Correct = prov.Wrong == 0 && len(prov.CrossChecks) == 0
	prov.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
}

// percentile is the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond the reported tail
// percentile, so the percentile rests on more than a handful of requests.
const minTail = 10

// tailQuantile is the tail percentile the benchmark reports.
const tailQuantile = 0.90

// minRequests is the smallest sample with minTail samples beyond the tail
// percentile: a run keeps sending past its time until it has this many.
var minRequests = requestsForTail(tailQuantile)

// requestsForTail is the smallest n with at least minTail of n samples
// strictly beyond the q-th percentile.
func requestsForTail(q float64) int {
	return int(math.Ceil(minTail/(1-q) - 1e-9))
}

// tailSupported reports whether n samples put minTail beyond percentile q.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// percentile returns the q-th percentile of sorted samples by linear
// interpolation between closest ranks (the rule numpy and Python's
// statistics module call "inclusive").
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method),
// which is how the spread between runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 { // j-th of n+1 cut points, exclusive method
		m := float64(j*(n+1)) / 4
		k := int(math.Floor(m))
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (m-float64(k))*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}

// perRequest divides a whole-phase counter delta by the requests that
// produced it; zero requests read as zero.
func perRequest(delta float64, requests int) float64 {
	if requests <= 0 {
		return 0
	}
	return delta / float64(requests)
}

// histMean is the mean of a histogram's samples recorded between two
// readings ({count, sum} pairs), zero when none were.
func histMean(before, after [2]int64) float64 {
	n := after[0] - before[0]
	if n <= 0 {
		return 0
	}
	return float64(after[1]-before[1]) / float64(n)
}

// historyEntry is one run's metrics, appended to the history file so the
// steadiness report can show the spread across runs.
type historyEntry struct {
	Time     string             `json:"time"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendHistory(path string, e historyEntry) error {
	e.Time = time.Now().UTC().Format(time.RFC3339)
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readHistory(path string) ([]historyEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []historyEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var e historyEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// printSteadiness writes, for each workload in the history, every metric's
// run count, median, quartiles and spread (Q3−Q1 over the median), marking
// each spread that exceeds the metric's bound. Untraced and traced runs are
// reported apart.
func printSteadiness(w io.Writer, hist []historyEntry, only string) {
	type key struct {
		wl    string
		trace bool
	}
	runs := map[key][]historyEntry{}
	var keys []key
	for _, e := range hist {
		if only != "" && e.Workload != only {
			continue
		}
		k := key{e.Workload, e.Trace}
		if _, ok := runs[k]; !ok {
			keys = append(keys, k)
		}
		runs[k] = append(runs[k], e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return !keys[i].trace
	})
	for _, k := range keys {
		mode := "untraced"
		if k.trace {
			mode = "traced"
		}
		fmt.Fprintf(w, "steadiness %s (%s), %d runs:\n", k.wl, mode, len(runs[k]))
		fmt.Fprintf(w, "  %-28s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, name := range metricOrder(runs[k]) {
			var vals []float64
			for _, e := range runs[k] {
				if v, ok := e.Metrics[name]; ok {
					vals = append(vals, v)
				}
			}
			q1, med, q3 := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			bound, flag := "", ""
			if m, ok := endToEndByName[name]; ok && !k.trace {
				bound = fmt.Sprintf("%.2f", m.Bound)
				if spread > m.Bound && name != "setup_s" {
					flag = "  OVER BOUND"
				}
			}
			fmt.Fprintf(w, "  %-28s %12.5g %12.5g %12.5g %8.4f %6s%s\n", name, q1, med, q3, spread, bound, flag)
		}
	}
}

// metricOrder lists the metric names of the runs: end-to-end metrics in
// their declared order, then the rest sorted.
func metricOrder(runs []historyEntry) []string {
	seen := map[string]bool{}
	for _, e := range runs {
		for n := range e.Metrics {
			seen[n] = true
		}
	}
	var out, rest []string
	for _, m := range endToEnd {
		if seen[m.Name] {
			out = append(out, m.Name)
			delete(seen, m.Name)
		}
	}
	for n := range seen {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

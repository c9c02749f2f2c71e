// Command perfbench is the sapserved benchmark. It starts the server in its
// own process, configured as cmd/sapserved is with default flags, behind a
// loopback listener, and drives one seeded closed-loop workload against it
// from one client goroutine per CPU, each on its own keep-alive connection.
// It checks every response and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run, as the last line of
// standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sapalloc/internal/obs"
)

// metricDef is one end-to-end metric: its unit, which direction is better,
// and the share of the parent's median by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.1},
	{"server_heap_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"weight_vs_lp", "ratio", "higher", 0.1},
	{"exact_frac", "ratio", "higher", 0.25},
	{"ok_frac", "ratio", "higher", 0.05},
}

var endToEndByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	return m
}()

// setupRuns is how many times an untraced run sets up, reporting the
// median; the last set-up serves the timed phase.
const setupRuns = 5

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	workdir  string
	tr       *tracer // the traced run's spans, nil untraced
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench server: %v\n", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run: replay every request through the layers and print the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for stores, spans and the run history")
	report := fs.Bool("report", false, "print the steadiness report of the run history and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 1, err
	}
	histPath := filepath.Join(*workdir, "history.jsonl")
	if *report {
		hist, err := readHistory(histPath)
		if err != nil {
			return 1, err
		}
		printSteadiness(os.Stdout, hist, *wl)
		return 0, nil
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds < 1 {
		return 2, errors.New("-seconds must be positive")
	}
	clients := runtime.NumCPU()
	w, err := newWorkload(*wl, *seed, clients)
	if err != nil {
		return 2, err
	}
	defer w.close()
	b := &bench{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, clients: clients, workdir: *workdir}

	res, prov, err := measure(b, w)
	if err != nil {
		return 1, err
	}
	hist := historyEntry{Workload: b.workload, Seed: b.seed, Trace: b.trace, Metrics: map[string]float64{}}
	for name, v := range res.Metrics {
		hist.Metrics[name] = v.Value
	}
	if err := appendHistory(histPath, hist); err != nil {
		return 1, err
	}
	all, err := readHistory(histPath)
	if err != nil {
		return 1, err
	}
	printRun(os.Stderr, prov, res, b.trace)
	if b.trace {
		printOverhead(os.Stderr, all, b.workload, res.Metrics["trace.latency_p50_ms"].Value)
	}
	printSteadiness(os.Stderr, all, b.workload)
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// provenance records what a run measured and where.
type provenance struct {
	Machine  machine      `json:"machine"`
	Workload workloadInfo `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"timed_seconds"`
	Requests int          `json:"requests"`
	Degraded float64      `json:"degraded_frac"`
	Errors   float64      `json:"error_frac"`
	Failures []string     `json:"failures,omitempty"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

func thisMachine() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// measure sets up, runs the timed phase, checks the outputs and computes
// the metrics of one run.
func measure(b *bench, w workload) (*result, *provenance, error) {
	setups := setupRuns
	if b.trace {
		// The replay runs in this process with metrics recording, as the
		// server's calls do.
		obs.EnableMetrics()
		b.tr = newTracer(b.clients)
		setups = 1
	}
	tr := b.tr
	var setupS []float64
	var srv *server
	for i := 0; i < setups; i++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = w.setup(b); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	ph, err := timed(b, srv, w, tr)
	if err != nil {
		srv.kill()
		return nil, nil, err
	}
	if _, err := srv.stop(); err != nil {
		return nil, nil, err
	}
	quality, finishErr := w.finish()

	prov := &provenance{Machine: thisMachine(), Workload: w.info(), Seed: b.seed,
		Seconds: ph.wall.Seconds(), Requests: ph.attempted}
	failed := len(ph.errs)
	prov.Errors = perRequest(float64(failed), ph.attempted)
	prov.Degraded = perRequest(float64(ph.degraded), ph.ok)
	for _, e := range ph.errs {
		prov.Failures = append(prov.Failures, e.Error())
	}
	if finishErr != nil {
		failed++
		prov.Failures = append(prov.Failures, finishErr.Error())
	}
	res := &result{Attempted: ph.attempted, Metrics: map[string]metricValue{}}
	if b.trace {
		for _, e := range tr.errs {
			failed++
			prov.Failures = append(prov.Failures, e.Error())
		}
		spans := tr.all()
		lm := perLayer(spans, ph, w, tr)
		for _, l := range layers {
			res.Metrics[l.Name] = metricValue{lm[l.Name], l.Unit}
		}
		name := fmt.Sprintf("spans-%s.json", b.workload)
		if err := writeSpans(filepath.Join(b.workdir, name), prov, spans); err != nil {
			return nil, nil, err
		}
	} else {
		v := map[string]float64{
			"throughput_rps":   float64(ph.ok) / ph.wall.Seconds(),
			"latency_p50_ms":   percentile(ph.latMs, 0.5),
			"latency_p90_ms":   percentile(ph.latMs, tailQuantile),
			"cpu_ms_per_req":   perRequest(float64(ph.cpuNs)/1e6, ph.attempted),
			"alloc_kb_per_req": perRequest(float64(ph.alloc)/1024, ph.attempted),
			"server_heap_mb":   (float64(ph.end.HeapLive) - float64(ph.end.BaseHeap)) / (1 << 20),
			"setup_s":          median(setupS),
			"weight_vs_lp":     quality,
			"exact_frac":       1 - prov.Degraded,
			"ok_frac":          1 - prov.Errors,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{v[d.Name], d.Unit}
		}
	}
	res.Failed = failed
	res.Correct = failed == 0 && (b.trace || tailSupported(len(ph.latMs), tailQuantile))
	return res, prov, nil
}

// printRun writes the run's provenance and metrics to w.
func printRun(w io.Writer, prov *provenance, res *result, trace bool) {
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", pj)
	if trace {
		for _, l := range layers {
			fmt.Fprintf(w, "  %-28s %12.5g %-6s %-6s moves %s on %s\n", l.Name, res.Metrics[l.Name].Value, l.Unit, l.Better, l.Moves, l.On)
		}
		return
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %12.5g %-6s %-6s bound %.2f\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound)
	}
}

// printOverhead sets the traced run's p50 latency beside the median p50
// of the untraced runs of the workload in the history.
func printOverhead(w io.Writer, hist []historyEntry, workload string, traced float64) {
	var untraced []float64
	for _, e := range hist {
		if e.Workload == workload && !e.Trace {
			untraced = append(untraced, e.Metrics["latency_p50_ms"])
		}
	}
	if len(untraced) == 0 {
		fmt.Fprintf(w, "tracing overhead: traced p50 %.4g ms; no untraced run of %s in the history yet\n", traced, workload)
		return
	}
	sort.Float64s(untraced)
	u := median(untraced)
	fmt.Fprintf(w, "tracing overhead: traced p50 %.4g ms, untraced median p50 %.4g ms over %d runs (%+.1f%%)\n",
		traced, u, len(untraced), 100*(traced-u)/math.Max(u, 1e-9))
}
